package main

import "time"

// The time figures are reported in reference units: an operation's
// latency divided by the time the benchmark's own reference kernel took
// next to it on the same goroutine. On a shared 2-vCPU KVM guest the
// speed of all code was measured to change by 1.6–1.8x, both every few
// seconds and in regimes lasting minutes, and even the fastest of many
// observations of one solve moved by 30% between runs minutes apart.
// The ratio to a kernel timed alongside follows those changes: over
// 20 s windows of one process its median stayed within 8% while the
// solve's own median moved by 20%. The kernel calls no code of the
// repository, so a change to the program moves the ratio as it moves
// the latency.

// refSize and refReps set the reference work: refReps products of two
// refSize×refSize matrices, about 2.5 ms on an uncontended vCPU.
const refSize, refReps = 16, 750

// refKernel runs the reference work and returns its time in ms and a
// value that depends on all of it.
func refKernel() (ms, v float64) {
	const n = refSize
	var a, b, c [n * n]float64
	for i := range a {
		a[i] = float64(i%7) * 0.01
		b[i] = float64(i%5) * 0.02
	}
	t0 := time.Now()
	for r := 0; r < refReps; r++ {
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				for j := 0; j < n; j++ {
					c[i*n+j] += aik * b[k*n+j]
				}
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6, c[n*n-1]
}

// refClock pairs each operation of one goroutine with the reference
// runs just before and just after it.
type refClock struct {
	last float64
	// times holds every reference time in ms; sink keeps the kernel's
	// result live.
	times []float64
	sink  float64
}

func newRefClock() *refClock {
	c := &refClock{}
	c.last = c.run()
	return c
}

func (c *refClock) run() float64 {
	ms, v := refKernel()
	c.sink += v
	c.times = append(c.times, ms)
	return ms
}

// ratio runs the reference kernel after an operation that took ms and
// returns the operation's time in reference units: ms over the mean of
// the reference times on either side of it.
func (c *refClock) ratio(ms float64) float64 {
	next := c.run()
	r := 2 * ms / (c.last + next)
	c.last = next
	return r
}
