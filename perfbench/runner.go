package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"geostreams/internal/dsms"
	"geostreams/internal/exec"
)

// workload is one traffic mix against one in-process server.
type workload interface {
	name() string
	// rate is the fixed offered rate, sectors/s; ptsPerSector counts the
	// points of one sector over every band the generator feeds.
	rate() float64
	ptsPerSector() int
	// prepare builds the oracle and any pre-existing state; not timed.
	prepare(e *env) error
	// setup builds one complete server instance: construction, store
	// open/recovery, source attach and every registration. Timed as
	// setup_s; run calls it several times, tearing down in between.
	setup(e *env) error
	// teardown stops the current instance and waits for its goroutines.
	teardown()
	// start attaches the clients, releases the server, and returns the
	// generator wired to its sources. Not timed.
	start(e *env) (*generator, error)
	// expect lists the query instances whose result for sector k must
	// arrive; verify checks one received result against the oracle.
	expect(k int64) []int
	verify(r receipt) error
	// burstDone reports failures that do not show in the result log
	// (resumed sessions, shed counters) for the sectors of st.
	burstDone(st genStats) burst
	server() *dsms.Server
	// layers adds the workload's live per-layer counters; replaySpec
	// describes the workload to the per-layer replay.
	layers(e *env, m metrics)
	replaySpec() replaySpec
}

// env is the state a run shares with its workload.
type env struct {
	ctx   context.Context
	cfg   config
	clk   clock
	pool  *pool
	rs    *receipts
	spans *spanLog
	// registerUs are the wall times of timed Server.Register calls; mu
	// guards it against the churning client.
	mu         sync.Mutex
	registerUs []float64
	// clientBytes counts result payload bytes the clients received.
	clientBytes int64
	// frames are the oracles whose decode cost the traced run reports.
	frames []*frameRef
	// fedSectors and fedPoints count what the generator sent since start.
	fedSectors, fedPoints int64
}

// Phase sizes. The warm-up lets pools, lazy set-up and the frame hubs
// settle; setupReps instances are built per run and the median reported.
// The sustained-rate search runs in bursts of stepSeconds, growing the
// rate by searchGrowth until a burst fails, then bisecting to
// searchResolve.
const (
	warmSeconds   = 1.0
	setupReps     = 9
	stepSeconds   = 1.5
	fixedWait     = 2 * time.Second
	stepWait      = time.Second
	maxWakeLagMs  = 50.0
	searchGrowth  = 1.5
	searchResolve = 1.06
)

func run(ctx context.Context, w workload, cfg config) (report, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	p, err := newPool(cfg.seed)
	if err != nil {
		return report{}, err
	}
	e := &env{ctx: ctx, cfg: cfg, clk: clock{epoch: time.Now()}, pool: p, rs: newReceipts(),
		spans: &spanLog{}}
	if err := w.prepare(e); err != nil {
		return report{}, fmt.Errorf("prepare: %w", err)
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.teardown()
		}
		runtime.GC()
		t0 := time.Now()
		err := w.setup(e)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			w.teardown()
			return report{}, fmt.Errorf("setup: %w", err)
		}
	}
	defer w.teardown()
	gen, err := w.start(e)
	if err != nil {
		return report{}, fmt.Errorf("start: %w", err)
	}
	rate := w.rate()
	warm := gen.run(ctx, rate, sectorsFor(rate, warmSeconds))
	collect(ctx, e.clk, gen, e.rs, warm, w.expect, w.verify, fixedWait)
	w.burstDone(warm)
	e.rs.forget(warm.k1)
	if ctx.Err() != nil {
		return report{}, ctx.Err()
	}
	if cfg.traced {
		return tracedRun(e, w, gen)
	}

	st := gen.run(ctx, rate, sectorsFor(rate, float64(cfg.seconds)))
	o := collect(ctx, e.clk, gen, e.rs, st, w.expect, w.verify, fixedWait)
	shed := addBurst(&o, w, st)
	e.rs.forget(st.k1)
	wakeP99 := quantile(st.wake, 0.99) / 1e6
	valid := wakeP99 <= maxWakeLagMs

	m := metrics{}
	m.set("setup_s", "s", median(setups))
	m.set("latency_p50_ms", "ms", o.queryP50())
	m.set("latency_p95_ms", "ms", o.p(0.95))
	m.set("peak_rss_mb", "MB", peakRSSMB())

	fmt.Fprintf(os.Stderr, "%s seed=%d: fixed rate %.1f sectors/s over %d sectors: attempted %d failed %d (wrong %d); p50 %.2f ms over all results, %.2f ms per query; p95 %.2f ms, p99 %.2f ms (%d samples)\n",
		w.name(), cfg.seed, rate, st.k1-st.k0, o.attempted, o.failed, o.wrong, o.p(0.5), o.queryP50(), o.p(0.95), o.p(0.99), len(o.lat))
	if o.firstErr != "" {
		fmt.Fprintf(os.Stderr, "  first failure: %s\n", o.firstErr)
	}
	fmt.Fprintf(os.Stderr, "  generator: send lag p99 %.2f ms, wake lag p99 %.2f ms (valid ≤ %.0f ms)\n",
		quantile(st.lag, 0.99)/1e6, wakeP99, maxWakeLagMs)
	fmt.Fprintf(os.Stderr, "  setup runs (s): %v; input pool %.1f MB beside peak RSS %.1f MB\n",
		fmtList(setups), float64(p.bytes())/1e6, peakRSSMB())
	if n, ok := w.(interface{ notes() string }); ok {
		fmt.Fprintf(os.Stderr, "  %s\n", n.notes())
	}
	if !valid {
		fmt.Fprintf(os.Stderr, "  RUN INVALID: the generator woke %.1f ms late at p99 (limit %.0f ms)\n", wakeP99, maxWakeLagMs)
	}
	// Outputs altered by shedding the server counted are failures; wrong
	// outputs without any shedding are a correctness bug.
	correct := valid && (o.wrong == 0 || shed > 0)
	return report{Correct: correct, Attempted: o.attempted, Failed: o.failed, Metrics: m}, nil
}

// addBurst folds the workload's out-of-log failures into o and returns
// the shedding the server counted during the burst.
func addBurst(o *outcome, w workload, st genStats) int64 {
	b := w.burstDone(st)
	o.attempted += b.attempted
	o.failed += b.failed
	o.wrong += b.wrong
	if b.failed > 0 && o.firstErr == "" {
		o.firstErr = b.msg
	}
	// Shedding normally shows as a missing or wrong result already; shed
	// chunks the oracle did not catch still fail the burst.
	if b.shed > 0 && o.failed == 0 {
		o.failed += int(b.shed)
		o.firstErr = fmt.Sprintf("%d chunks or frames shed", b.shed)
	}
	return b.shed
}

// burst is what a workload reports for one burst beyond the result log:
// its own operations (resumed sessions) and the shedding it observed.
type burst struct {
	attempted, failed, wrong int
	shed                     int64
	msg                      string
}

func sectorsFor(rate, seconds float64) int {
	n := int(math.Round(rate * seconds))
	if n < 4 {
		n = 4
	}
	return n
}

// search finds the highest offered rate at which a burst passes (nothing
// fails or is shed, p99 within the latency limit, no latency trend):
// geometric growth from the fixed rate until a burst fails, then
// bisection, within the remaining seconds of the run.
func search(e *env, w workload, gen *generator, r0 float64, r0pass bool, seconds float64) (float64, []string) {
	lo, hi := 0.0, 0.0
	if r0pass {
		lo = r0
	} else {
		hi = r0
	}
	var steps []string
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for e.ctx.Err() == nil {
		var r float64
		switch {
		case hi == 0:
			r = lo * searchGrowth
		case lo == 0:
			r = hi / searchGrowth
		case hi/lo < searchResolve:
			return lo, steps
		default:
			r = math.Sqrt(lo * hi)
		}
		if time.Until(deadline) < time.Duration((stepSeconds+0.3)*float64(time.Second)) {
			break
		}
		st := gen.run(e.ctx, r, sectorsFor(r, stepSeconds))
		o := collect(e.ctx, e.clk, gen, e.rs, st, w.expect, w.verify, stepWait)
		addBurst(&o, w, st)
		e.rs.forget(st.k1)
		pass := o.passes()
		mark := "ok"
		if pass {
			lo = r
		} else {
			hi = r
			mark = "FAIL"
			settle(e)
		}
		steps = append(steps, fmt.Sprintf("%.1f:%s(p99=%.0f,trend=%.0f,failed=%d)", r, mark, o.p(0.99), o.trendMs(), o.failed))
	}
	if lo == 0 {
		lo = hi / searchGrowth
	}
	return lo, steps
}

// settle gives an overloaded server time to drain its backlog before the
// next burst, so one burst's overload does not bleed into the next.
func settle(e *env) {
	deadline := time.Now().Add(3 * time.Second)
	last := -1
	for time.Now().Before(deadline) {
		n := e.rs.size()
		if n == last {
			break
		}
		last = n
		time.Sleep(300 * time.Millisecond)
	}
}

// peakRSSMB is the process high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return "[" + strings.Join(s, " ") + "]"
}

// execHitRatio is the exec pool's hit ratio between two snapshots.
func execHitRatio(a, b exec.Stats) float64 {
	hits := (b.PoolHits - a.PoolHits) + (b.PoolSteals - a.PoolSteals)
	all := hits + (b.PoolMisses - a.PoolMisses)
	if all == 0 {
		return 0
	}
	return float64(hits) / float64(all)
}
