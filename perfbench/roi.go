package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"geostreams/internal/dsms"
	"geostreams/internal/geom"
	"geostreams/internal/sat"
	"geostreams/internal/stream"
)

// roiMonitor is the many-concurrent-queries case: vis arrives over one
// GSP ingest connection and 1024 regional-mean queries over 256 jittered
// tiles (Zipf popularity, so popular tiles share trunks) watch it, while a
// few queries per second are deregistered and registered again. Routing,
// shared-trunk dedup, planning and wire decode do the work; agg_r emits
// series points and no frames, so PNG encode is bypassed.
type roiMonitor struct {
	inst
	tiles []geom.Rect
	texts []string // per tile
	picks []int    // per initial query: its tile
	means [][]float64

	feed chan *stream.Chunk
	gen  *generator
	// mu guards queries, whose entries the series poller reads and the
	// churner replaces.
	mu      sync.Mutex
	queries []*roiQuery
	live    []int // indexes into queries of the registered instances
}

// roiQuery is one registration of a tile query. Results of sector k count
// only when k started after the registration completed and ended at least
// the latency limit before a later deregistration began.
type roiQuery struct {
	tile       int
	reg        *dsms.Registered
	from       int
	regDone    int64
	deregStart int64 // 0 while registered
}

const (
	roiTiles   = 256
	roiQueries = 1024
	roiZipf    = 1.1
	// roiChurnEvery is the pause between deregister/register pairs, and
	// roiPollEvery the series polling resolution.
	roiChurnEvery = 250 * time.Millisecond
	roiPollEvery  = time.Millisecond
)

func (w *roiMonitor) name() string      { return "roi-monitor" }
func (w *roiMonitor) rate() float64     { return 10 }
func (w *roiMonitor) ptsPerSector() int { return sectorW * sectorH }

func (w *roiMonitor) prepare(e *env) error {
	rng := rand.New(rand.NewSource(e.cfg.seed))
	// 16×16 cells over the scan region, each tile jittered in centre and
	// size inside its cell. Coordinates are rounded to 1e-4° so the query
	// text and the oracle agree on the exact rectangle.
	const n = 16
	cw, ch := region.Width()/n, region.Height()/n
	round := func(x float64) float64 { return math.Round(x*1e4) / 1e4 }
	for i := 0; i < roiTiles; i++ {
		cx := region.MinX + (float64(i%n)+0.5+0.3*(rng.Float64()-0.5))*cw
		cy := region.MinY + (float64(i/n)+0.5+0.3*(rng.Float64()-0.5))*ch
		hw := cw * (0.3 + 0.25*rng.Float64())
		hh := ch * (0.3 + 0.25*rng.Float64())
		r := geom.R(round(cx-hw), round(cy-hh), round(cx+hw), round(cy+hh))
		rect := fmt.Sprintf("rect(%s, %s, %s, %s)", ff(r.MinX), ff(r.MinY), ff(r.MaxX), ff(r.MaxY))
		w.tiles = append(w.tiles, r)
		w.texts = append(w.texts, fmt.Sprintf("agg_r(rselect(vis, %s), mean, %s)", rect, rect))
	}
	// Zipf popularity over a seeded ranking of the tiles.
	rank := rng.Perm(roiTiles)
	z := rand.NewZipf(rng, roiZipf, 1, roiTiles-1)
	w.picks = make([]int, roiQueries)
	for i := range w.picks {
		w.picks[i] = rank[z.Uint64()]
	}
	w.means = regionMeans(e.pool, w.tiles)
	return nil
}

func ff(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }

func (w *roiMonitor) setup(e *env) error {
	w.newServer(e)
	feed, err := w.serveWireFeed(e.pool.info[sat.BandVIS])
	if err != nil {
		return err
	}
	w.feed = feed
	w.mu.Lock()
	w.queries, w.live = nil, nil
	w.mu.Unlock()
	for _, t := range w.picks {
		reg, err := register(e, w.srv, w.texts[t], "")
		if err != nil {
			return err
		}
		w.mu.Lock()
		w.live = append(w.live, len(w.queries))
		w.queries = append(w.queries, &roiQuery{tile: t, reg: reg})
		w.mu.Unlock()
	}
	return nil
}

func (w *roiMonitor) start(e *env) (*generator, error) {
	w.goClient(func(ctx context.Context) { w.poll(ctx, e) })
	w.goClient(func(ctx context.Context) { w.churn(ctx, e) })
	w.srv.Start()
	w.gen = newGenerator(e.clk, e.pool, []string{sat.BandVIS}, []chan *stream.Chunk{w.feed}, false, 0)
	return w.gen, nil
}

// poll sweeps every registered query's series buffer each roiPollEvery;
// a result's receipt time is the sweep that found it.
func (w *roiMonitor) poll(ctx context.Context, e *env) {
	t := time.NewTicker(roiPollEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		w.mu.Lock()
		for _, qi := range w.live {
			w.drain(e, qi)
		}
		w.mu.Unlock()
	}
}

// drain reads query qi's new series points; w.mu must be held.
func (w *roiMonitor) drain(e *env, qi int) {
	q := w.queries[qi]
	pts, next := q.reg.Series(q.from)
	q.from = next
	if len(pts) == 0 {
		return
	}
	now := e.clk.now()
	for _, p := range pts {
		v := p.Val
		if p.NaN {
			v = math.NaN()
		}
		e.rs.add(receipt{inst: qi, k: int64(p.T), at: now, val: v})
	}
}

// churn deregisters a random query and registers its text again, every
// roiChurnEvery, until the instance stops.
func (w *roiMonitor) churn(ctx context.Context, e *env) {
	rng := rand.New(rand.NewSource(e.cfg.seed + 1))
	t := time.NewTicker(roiChurnEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		w.mu.Lock()
		slot := rng.Intn(len(w.live))
		qi := w.live[slot]
		old := w.queries[qi]
		w.drain(e, qi) // results the old instance already produced still count
		old.deregStart = e.clk.now()
		w.live = append(w.live[:slot], w.live[slot+1:]...)
		w.mu.Unlock()
		if err := w.srv.Deregister(old.reg.ID); err != nil {
			return // server shutting down
		}
		reg, err := register(e, w.srv, w.texts[old.tile], "")
		if err != nil {
			return
		}
		w.mu.Lock()
		w.live = append(w.live, len(w.queries))
		w.queries = append(w.queries, &roiQuery{tile: old.tile, reg: reg, regDone: e.clk.now()})
		w.mu.Unlock()
	}
}

func (w *roiMonitor) teardown() { w.stop(func() {}) }

func (w *roiMonitor) expect(k int64) []int {
	first, eos, ok := w.gen.due(k)
	if !ok {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []int
	for i, q := range w.queries {
		if q.regDone > first {
			continue
		}
		if q.deregStart != 0 && q.deregStart < eos+int64(latencyLimit) {
			continue
		}
		out = append(out, i)
	}
	return out
}

func (w *roiMonitor) verify(r receipt) error {
	w.mu.Lock()
	tile := w.queries[r.inst].tile
	w.mu.Unlock()
	want := w.means[tile][r.k%poolSectors]
	if !meanMatches(r.val, want) {
		return fmt.Errorf("agg_r mean %v, oracle %v", r.val, want)
	}
	return nil
}

func (w *roiMonitor) burstDone(genStats) burst {
	b := burst{shed: w.hubShed()}
	// agg_r delivers series points only: a PNG frame here means the
	// workload no longer bypasses encode.
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, qi := range w.live {
		if f := w.queries[qi].reg.DeliveryStats().Frames; f != 0 {
			b.failed, b.wrong = 1, 1
			b.msg = fmt.Sprintf("agg_r query %d published %d PNG frames", w.queries[qi].reg.ID, f)
			break
		}
	}
	return b
}

func (w *roiMonitor) replaySpec() replaySpec {
	s := replaySpec{bands: []string{sat.BandVIS}, path: []string{"decode", "probe", "operator"}}
	seen := map[int]bool{}
	for _, t := range w.picks {
		if !seen[t] {
			seen[t] = true
			s.queries = append(s.queries, w.texts[t])
			s.rects = append(s.rects, w.tiles[t])
		}
	}
	return s
}

func (w *roiMonitor) layers(e *env, m metrics) {
	w.mu.Lock()
	regs := make([]*dsms.Registered, 0, len(w.live))
	for _, qi := range w.live {
		regs = append(regs, w.queries[qi].reg)
	}
	w.mu.Unlock()
	serverLayers(e, w.srv, regs, m)
}
