package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// latencyLimit is the result-latency limit the sustained-rate search holds
// p99 to, and the grace a churned query needs before its results count.
const latencyLimit = 250 * time.Millisecond

// receipt is one result as a client received it.
type receipt struct {
	inst int   // query instance that produced it
	k    int64 // sector id
	at   int64 // receipt time (clock ns)
	png  []byte
	val  float64
}

// receipts is the shared result log every client goroutine writes,
// indexed by sector.
type receipts struct {
	mu  sync.Mutex
	byK map[int64][]receipt
	n   int
}

func newReceipts() *receipts { return &receipts{byK: map[int64][]receipt{}} }

func (rs *receipts) add(r receipt) {
	rs.mu.Lock()
	rs.byK[r.k] = append(rs.byK[r.k], r)
	rs.n++
	rs.mu.Unlock()
}

// inRange returns the receipts for sectors [k0, k1), grouped by
// (instance, sector).
func (rs *receipts) inRange(k0, k1 int64) map[[2]int64][]receipt {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := map[[2]int64][]receipt{}
	for k := k0; k < k1; k++ {
		for _, r := range rs.byK[k] {
			key := [2]int64{int64(r.inst), k}
			out[key] = append(out[key], r)
		}
	}
	return out
}

// size is the number of receipts ever logged.
func (rs *receipts) size() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.n
}

// forget drops receipts of sectors before k, bounding memory across bursts.
func (rs *receipts) forget(k int64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for kk := range rs.byK {
		if kk < k {
			delete(rs.byK, kk)
		}
	}
}

// outcome is the verdict over one paced burst of sectors.
type outcome struct {
	attempted, failed int
	wrong             int // wrong or duplicated outputs (subset of failed)
	firstErr          string
	lat               []float64 // per attempted op, ms; failed ops past every limit
	byInst            map[int][]float64
	okLatHalves       [2][]float64
}

func (o *outcome) fail(wrong bool, msg string) {
	o.failed++
	if wrong {
		o.wrong++
	}
	if o.firstErr == "" {
		o.firstErr = msg
	}
}

func (o outcome) p(q float64) float64 { return quantile(o.lat, q) }

// queryP50 is each query instance's median result latency, averaged over
// the instances. Every query weighs the same, so a workload mixing a fast
// and a slow product does not put its median in the gap between them.
func (o outcome) queryP50() float64 {
	if len(o.byInst) == 0 {
		return 0
	}
	sum := 0.0
	for _, l := range o.byInst {
		sum += median(l)
	}
	return sum / float64(len(o.byInst))
}

// trendMs is how much the median latency of the burst's second half
// exceeds its first half: a growing backlog shows here before p99 does.
func (o outcome) trendMs() float64 {
	a, b := o.okLatHalves[0], o.okLatHalves[1]
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return quantile(b, 0.5) - quantile(a, 0.5)
}

// passes is the sustained-rate criterion: nothing failed, p99 within the
// latency limit, and no upward latency trend across the burst.
func (o outcome) passes() bool {
	return o.failed == 0 && o.p(0.99) <= float64(latencyLimit/time.Millisecond) && o.trendMs() <= 40
}

// collect waits until every expected result of bursts st has arrived (or
// the wait bound passes), then checks each one with verify.
func collect(ctx context.Context, clk clock, gen *generator, rs *receipts, st genStats,
	expect func(k int64) []int, verify func(receipt) error, wait time.Duration) outcome {
	expected := map[int64][]int{}
	for k := st.k0; k < st.k1; k++ {
		expected[k] = expect(k)
	}
	// Poll until every expected result is in (extra results, such as those
	// of a query registered mid-sector, do not count) or the bound passes.
	deadline := st.end + int64(wait)
	var got map[[2]int64][]receipt
	for {
		got = rs.inRange(st.k0, st.k1)
		missing := false
		for k, insts := range expected {
			for _, inst := range insts {
				if len(got[[2]int64{int64(inst), k}]) == 0 {
					missing = true
					break
				}
			}
			if missing {
				break
			}
		}
		if !missing || clk.now() >= deadline {
			break
		}
		select {
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			return outcome{}
		}
	}
	// A failed result counts past every latency limit: at the time the
	// wait gave up on it, and never under four times the limit.
	bound := clk.now()
	failedMs := math.Max(float64(bound-st.end)/1e6, float64(4*latencyLimit/time.Millisecond))
	o := outcome{byInst: map[int][]float64{}}
	mid := st.k0 + (st.k1-st.k0)/2
	for k := st.k0; k < st.k1; k++ {
		_, dueEOS, _ := gen.due(k)
		for _, inst := range expected[k] {
			o.attempted++
			ms := math.Max(float64(bound-dueEOS)/1e6, failedMs)
			rr := got[[2]int64{int64(inst), k}]
			switch {
			case len(rr) == 0:
				o.fail(false, fmt.Sprintf("instance %d sector %d: no result", inst, k))
			case len(rr) > 1:
				o.fail(true, fmt.Sprintf("instance %d sector %d: %d results", inst, k, len(rr)))
			default:
				if err := verify(rr[0]); err != nil {
					o.fail(true, fmt.Sprintf("instance %d sector %d: %v", inst, k, err))
					break
				}
				ms = float64(rr[0].at-dueEOS) / 1e6
				h := 0
				if k >= mid {
					h = 1
				}
				o.okLatHalves[h] = append(o.okLatHalves[h], ms)
			}
			o.lat = append(o.lat, ms)
			o.byInst[inst] = append(o.byInst[inst], ms)
		}
	}
	return o
}

// quantile is the linear-interpolation quantile of xs (unsorted input is
// copied); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
