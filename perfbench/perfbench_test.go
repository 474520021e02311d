package main

import (
	"bytes"
	"context"
	"encoding/json"
	"image"
	"image/png"
	"os"
	"testing"
	"time"

	"geostreams/internal/geom"
	"geostreams/internal/sat"
	"geostreams/internal/stream"
)

// benchmarkSpec reads the metric names and units BENCHMARK.json promises.
func benchmarkSpec(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func sameMetrics(t *testing.T, what string, got metrics, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, want %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", what, name)
		}
	}
}

// TestWorkloadsShortRun runs every workload briefly, measured and traced:
// every named metric is present with its unit, and nothing fails on this
// code at the fixed rates. Under the race detector the server is too slow
// for the fixed rates, so only the metrics and the absence of races are
// checked there.
func TestWorkloadsShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for several seconds")
	}
	e2e, layer := benchmarkSpec(t)
	for _, name := range []string{"ndvi-frames", "roi-monitor", "history-catchup"} {
		for _, traced := range []bool{false, true} {
			w, err := newWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := run(context.Background(), w, config{
				seed: 7919, seconds: 3, traced: traced, dir: t.TempDir(), spanDir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			want := e2e
			if traced {
				want = layer
			}
			sameMetrics(t, name, rep.Metrics, want)
			if rep.Attempted == 0 || (!raceEnabled && (!rep.Correct || rep.Failed != 0)) {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			if traced && name == "roi-monitor" && rep.Metrics["dsms.frames_published"].Value != 0 {
				t.Errorf("roi-monitor published %v frames", rep.Metrics["dsms.frames_published"].Value)
			}
		}
	}
}

func testPool(t *testing.T) *pool {
	t.Helper()
	p, err := newPool(5)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// encodeRef encodes the oracle's own pixels for pool entry e as a PNG.
func encodeRef(t *testing.T, fr *frameRef, e int, mutate func(pix []byte)) []byte {
	t.Helper()
	img := image.NewNRGBA(image.Rect(0, 0, fr.w[e], fr.h[e]))
	copy(img.Pix, fr.pix[e])
	if mutate != nil {
		mutate(img.Pix)
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFrameOracleRejectsCorruption: pixels equal to the naive plan pass,
// whatever the encoder; a single changed pixel or a lost row fails.
func TestFrameOracleRejectsCorruption(t *testing.T) {
	p := testPool(t)
	fr, err := newFrameRef(p, ndviQueries[0].text, ndviQueries[0].colormap)
	if err != nil {
		t.Fatal(err)
	}
	const k = 10 // pool entry 2, restamped
	e := k % poolSectors
	if err := fr.check(k, encodeRef(t, fr, e, nil)); err != nil {
		t.Fatalf("reference pixels rejected: %v", err)
	}
	corrupt := encodeRef(t, fr, e, func(pix []byte) { pix[4*100] ^= 0x40 })
	if err := fr.check(k, corrupt); err == nil {
		t.Fatal("corrupted frame accepted")
	}
	dropped := encodeRef(t, fr, e, func(pix []byte) {
		row := 4 * fr.w[e]
		for i := 7 * row; i < 8*row; i++ {
			pix[i] = 0 // a shed row renders as transparent NaN cells
		}
	})
	if err := fr.check(k, dropped); err == nil {
		t.Fatal("frame with a dropped row accepted")
	}
	if err := fr.check(k, []byte("not a png")); err == nil {
		t.Fatal("undecodable frame accepted")
	}
}

// TestSessionOracle: a resumed session must continue from the cursor
// without gap or duplicate and carry bit-equal values.
func TestSessionOracle(t *testing.T) {
	p := testPool(t)
	const text = "rselect(vis, rect(-122, 37, -121, 38))"
	cr, err := newChunkRef(p, text)
	if err != nil {
		t.Fatal(err)
	}
	sector := func(k int64) []*stream.Chunk {
		out, _, err := naiveOutput(p, text, k)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	feed := func(sc *sessionCheck, cs []*stream.Chunk) {
		for _, c := range cs {
			sc.add(c)
		}
	}
	good := &sessionCheck{ref: cr, next: 3}
	feed(good, sector(3))
	feed(good, sector(4))
	if good.err != nil || good.next != 5 {
		t.Fatalf("clean session: err=%v next=%d", good.err, good.next)
	}

	dup := &sessionCheck{ref: cr, next: 3}
	s := sector(3)
	feed(dup, append(append([]*stream.Chunk{}, s[:5]...), s[4:]...))
	if dup.err == nil {
		t.Fatal("duplicated resumed chunk accepted")
	}

	drop := &sessionCheck{ref: cr, next: 3}
	s = sector(3)
	feed(drop, append(append([]*stream.Chunk{}, s[:5]...), s[6:]...))
	if drop.err == nil {
		t.Fatal("dropped resumed row accepted")
	}

	gap := &sessionCheck{ref: cr, next: 3}
	feed(gap, sector(4))
	if gap.err == nil {
		t.Fatal("session that skipped a sector accepted")
	}

	flip := &sessionCheck{ref: cr, next: 3}
	s = sector(3)
	c := s[2].CloneGrid()
	c.Grid.Vals[0] += 1e-9
	s[2] = c
	feed(flip, s)
	if flip.err == nil {
		t.Fatal("altered value accepted")
	}
}

// TestCollectCountsFailures: a missing, duplicated or wrong result is a
// failed operation with a latency past every limit; results of instances
// nobody expected do not count.
func TestCollectCountsFailures(t *testing.T) {
	clk := clock{epoch: time.Now()}
	gen := &generator{dueFirst: map[int64]int64{}, dueEOS: map[int64]int64{}}
	for k := int64(0); k < 4; k++ {
		gen.dueFirst[k], gen.dueEOS[k] = k*1e6, k*1e6+5e5
	}
	rs := newReceipts()
	rs.add(receipt{inst: 0, k: 0, at: 1e6, val: 1})
	rs.add(receipt{inst: 0, k: 1, at: 2e6, val: 1})
	rs.add(receipt{inst: 0, k: 1, at: 2e6, val: 1}) // duplicate
	rs.add(receipt{inst: 0, k: 2, at: 3e6, val: 2}) // wrong
	rs.add(receipt{inst: 9, k: 2, at: 3e6, val: 1}) // not expected
	// sector 3: missing
	st := genStats{k0: 0, k1: 4, end: 35e5}
	o := collect(context.Background(), clk, gen, rs, st,
		func(int64) []int { return []int{0} },
		func(r receipt) error {
			if r.val != 1 {
				return errWrong
			}
			return nil
		}, time.Millisecond)
	if o.attempted != 4 || o.failed != 3 || o.wrong != 2 {
		t.Fatalf("attempted %d failed %d wrong %d, want 4, 3, 2", o.attempted, o.failed, o.wrong)
	}
	if o.passes() {
		t.Fatal("a burst with failures passed")
	}
	if o.p(0.99) <= float64(latencyLimit/time.Millisecond) {
		t.Fatalf("failed results did not count past the latency limit (p99 %.1f ms)", o.p(0.99))
	}
}

var errWrong = os.ErrInvalid

// TestRegionMeanOracle: the agg_r oracle's mean matches a direct mean of
// the cells a tile contains, and a shifted value does not match.
func TestRegionMeanOracle(t *testing.T) {
	p := testPool(t)
	r := geom.R(-121.2, 36.8, -121.0, 37.0)
	got := regionMeans(p, []geom.Rect{r})[0][1]
	n, sum := 0, 0.0
	for row, vals := range p.rows[sat.BandVIS][1] {
		lat := p.rowLattice(row)
		for c, v := range vals {
			if r.Contains(lat.Coord(c, 0)) {
				n++
				sum += v
			}
		}
	}
	if n == 0 || !meanMatches(got, sum/float64(n)) {
		t.Fatalf("oracle mean %v over %d cells, direct %v", got, n, sum/float64(n))
	}
	if meanMatches(got, got*(1+1e-6)) {
		t.Fatal("a mean off by 1e-6 matched")
	}
}
