package main

import (
	"math"
	"math/rand/v2"

	psdp "repro"
	"repro/internal/matrix"
	"repro/internal/sparse"
)

// Base instances come from baseSeed; the run's --seed draws how each is
// presented to the program: an orthogonal change of basis (dense) or a
// relabelling of the matrix dimension (sparse, factored), and an order
// of the constraints. Every seed thus sends different bytes with the
// same packing optimum and trace bracket, so the number of decision
// calls, which differs up to fourfold between random instances of one
// shape, does not move the figures from seed to seed.
const baseSeed = 0x5eed2012

// presented is a constraint set after presentation; perm[k] is the base
// constraint shown at position k.
type presented struct {
	set  psdp.ConstraintSet
	perm []int
}

// present re-expresses set under a symmetry drawn from rng.
func present(set psdp.ConstraintSet, rng *rand.Rand) (presented, error) {
	n := set.N()
	perm := rng.Perm(n)
	switch s := set.(type) {
	case *psdp.DenseSet:
		q := randomOrthogonal(s.Dim(), rng)
		as := make([]*psdp.Dense, n)
		for k, i := range perm {
			b := matrix.MulABT(matrix.MulAB(q, s.A[i], nil), q, nil)
			b.Symmetrize()
			as[k] = b
		}
		out, err := psdp.NewDenseSet(as)
		return presented{out, perm}, err
	case *psdp.SparseSet:
		relabel := rng.Perm(s.Dim())
		as := make([]*sparse.CSC, n)
		for k, i := range perm {
			a, err := relabelCSC(s.A[i], relabel, true)
			if err != nil {
				return presented{}, err
			}
			as[k] = a
		}
		out, err := psdp.NewSparseSet(as)
		return presented{out, perm}, err
	case *psdp.FactoredSet:
		relabel := rng.Perm(s.Dim())
		qs := make([]*sparse.CSC, n)
		for k, i := range perm {
			q, err := relabelCSC(s.Q[i], relabel, false)
			if err != nil {
				return presented{}, err
			}
			qs[k] = q
		}
		out, err := psdp.NewFactoredSet(qs)
		return presented{out, perm}, err
	}
	return presented{set, perm}, nil
}

// relabelCSC maps row r to relabel[r], and column c to relabel[c] too
// when cols is set.
func relabelCSC(a *sparse.CSC, relabel []int, cols bool) (*sparse.CSC, error) {
	trips := make([]sparse.Triplet, 0, a.NNZ())
	for j := 0; j < a.C; j++ {
		c := j
		if cols {
			c = relabel[j]
		}
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			trips = append(trips, sparse.Triplet{Row: relabel[a.Row[p]], Col: c, Val: a.Val[p]})
		}
	}
	return sparse.NewCSC(a.R, a.C, trips)
}

// randomOrthogonal returns an m×m orthogonal matrix: modified
// Gram–Schmidt on Gaussian columns.
func randomOrthogonal(m int, rng *rand.Rand) *matrix.Dense {
	q := matrix.New(m, m)
	cols := make([][]float64, 0, m)
	for len(cols) < m {
		v := make([]float64, m)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		for _, u := range cols {
			matrix.VecAXPY(v, -matrix.VecDot(u, v), u)
		}
		nrm := math.Sqrt(matrix.VecDot(v, v))
		if nrm < 1e-8 {
			continue // numerically dependent draw; try again
		}
		matrix.VecScale(v, 1/nrm, v)
		for i, x := range v {
			q.Set(i, len(cols), x)
		}
		cols = append(cols, v)
	}
	return q
}

// permuteCover reorders a covering matrix's columns to follow a
// presented set (column k covers base constraint perm[k]) and shuffles
// its rows.
func permuteCover(cov *matrix.Dense, perm []int, rng *rand.Rand) *matrix.Dense {
	rows := rng.Perm(cov.R)
	out := matrix.New(cov.R, cov.C)
	for r, src := range rows {
		for k, i := range perm {
			out.Set(r, k, cov.At(src, i))
		}
	}
	return out
}
