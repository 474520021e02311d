package dsms

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"geostreams/internal/geom"
	"geostreams/internal/raster"
	"geostreams/internal/stream"
)

// TestConcurrentPollersEachSeeEveryFrame pins the frame-stealing bug: the
// old delivery queue's popWait was a destructive single-consumer pop, so
// two clients long-polling GET /queries/{id}/frame silently split the
// frame stream between them. With the cursor ring, any number of pollers
// each observe the complete, bit-identical frame sequence.
func TestConcurrentPollersEachSeeEveryFrame(t *testing.T) {
	s, stop := startServer(t, 3)
	defer stop()
	reg, err := s.Register("vis", DeliveryOptions{Colormap: "gray"})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type seen struct {
		seqs []uint64
		pngs [][]byte
	}
	poll := func() (*seen, error) {
		got := &seen{}
		cursor := "oldest"
		for {
			resp, err := http.Get(fmt.Sprintf("%s/queries/%d/frame?cursor=%s&wait=5000",
				ts.URL, reg.ID, cursor))
			if err != nil {
				return nil, err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			if next := resp.Header.Get("X-Geostreams-Cursor"); next != "" {
				cursor = next
			}
			if resp.StatusCode == http.StatusNoContent {
				if resp.Header.Get("X-Geostreams-End") == "1" {
					return got, nil
				}
				continue
			}
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("status %d", resp.StatusCode)
			}
			seq, err := strconv.ParseUint(resp.Header.Get("X-Geostreams-Seq"), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad seq header: %v", err)
			}
			got.seqs = append(got.seqs, seq)
			got.pngs = append(got.pngs, body)
		}
	}

	const pollers = 2
	results := make([]*seen, pollers)
	errs := make([]error, pollers)
	var wg sync.WaitGroup
	for i := 0; i < pollers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = poll()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("poller %d: %v", i, err)
		}
	}
	// Every poller observed every frame exactly once, in order, and the
	// bytes are identical across pollers (one encode, shared backing).
	for i, r := range results {
		if len(r.seqs) != 3 {
			t.Fatalf("poller %d saw %d frames, want 3 (stream split between pollers?)", i, len(r.seqs))
		}
		for j, seq := range r.seqs {
			if seq != uint64(j) {
				t.Fatalf("poller %d frame %d has seq %d (gap or duplicate)", i, j, seq)
			}
			if !bytes.Equal(r.pngs[j], results[0].pngs[j]) {
				t.Fatalf("poller %d frame %d bytes differ from poller 0", i, j)
			}
		}
	}
	if n := reg.DeliveryStats().Frames; n != 3 {
		t.Fatalf("encoded %d frames for %d pollers, want exactly 3 (render-once)", n, pollers)
	}
}

// TestFrameHubTargetedWakeups pins the thundering-herd fix: the old queue
// Broadcast woke every waiter on every push (and on every timer), so N
// parked subscribers cost N wakeups per frame regardless of readiness.
// The hub must wake exactly the waiters whose awaited sequence the new
// frame satisfies.
func TestFrameHubTargetedWakeups(t *testing.T) {
	h := newFrameHub(8)
	pub := func(sec int64) {
		f := &Frame{Sector: geom.Timestamp(sec)}
		f.refs.Store(1)
		h.publish(f)
	}
	waiters := func() int {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.waiters)
	}
	var wg sync.WaitGroup
	// Three readers need the next frame (seq 0); two are parked far ahead
	// (seq 2) and must not be disturbed by earlier publishes.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); h.await(0, 5*time.Second) }()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); h.await(2, 5*time.Second) }()
	}
	deadline := time.Now().Add(5 * time.Second)
	for waiters() != 5 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/5 waiters parked", waiters())
		}
		time.Sleep(time.Millisecond)
	}
	pub(100) // seq 0: satisfies exactly the three near waiters
	if got := h.wakeups.Load(); got != 3 {
		t.Fatalf("publish(seq 0) woke %d waiters, want exactly 3", got)
	}
	pub(101) // seq 1: satisfies nobody
	if got := h.wakeups.Load(); got != 3 {
		t.Fatalf("publish(seq 1) woke %d extra waiters, want none", got-3)
	}
	pub(102) // seq 2: releases the two far waiters
	if got := h.wakeups.Load(); got != 5 {
		t.Fatalf("wakeups after all publishes = %d, want 5", got)
	}
	wg.Wait()
	// A waiter timing out removes only itself — no broadcast to others.
	h.await(10, 10*time.Millisecond)
	if got := h.wakeups.Load(); got != 5 {
		t.Fatalf("timeout caused %d spurious wakeups", got-5)
	}
}

// TestFrameSubObservesFullSequence checks the in-process subscription:
// fast subscribers see every frame; a lagging subscriber skips forward
// over evicted frames with its shed counted per client, and the pipeline
// is never stalled.
func TestFrameSubObservesFullSequence(t *testing.T) {
	h := newFrameHub(4)
	r := &Registered{frames: h}
	fast := r.SubscribeFrames()
	defer fast.Close()
	lag := r.SubscribeFrames()
	defer lag.Close()
	if got := h.subs.Load(); got != 2 {
		t.Fatalf("subscriber gauge = %d, want 2", got)
	}
	for sec := int64(0); sec < 10; sec++ {
		f := &Frame{Sector: geom.Timestamp(sec)}
		f.refs.Store(1)
		h.publish(f)
		// The fast subscriber keeps up frame by frame.
		got, ok := fast.Next(time.Second)
		if !ok || got.Sector != geom.Timestamp(sec) {
			t.Fatalf("fast sub at %d: %+v %v", sec, got, ok)
		}
		got.Release()
	}
	h.close()
	// The lagging subscriber only now starts reading: 10 published, ring
	// holds the last 4, so it sheds 6 and reads 6..9 before EOS.
	var secs []int64
	for {
		f, ok := lag.Next(time.Second)
		if !ok {
			break
		}
		secs = append(secs, int64(f.Sector))
		f.Release()
	}
	if len(secs) != 4 || secs[0] != 6 || secs[3] != 9 {
		t.Fatalf("lagging sub read %v, want [6 7 8 9]", secs)
	}
	if lag.Shed() != 6 {
		t.Fatalf("lagging sub shed = %d, want 6", lag.Shed())
	}
	if fast.Shed() != 0 {
		t.Fatalf("fast sub shed = %d, want 0", fast.Shed())
	}
	if h.shedCount() != 6 {
		t.Fatalf("hub shed total = %d, want 6", h.shedCount())
	}
}

// encodeCycle returns one steady-state encode+publish+consume cycle
// through deliver's encoder path: the sector's data chunks (built once and
// reused — plain chunks, so the encoder's Release is a no-op), then its
// end-of-sector, then publishFrame and a subscriber reading the frame.
func encodeCycle(t *testing.T, lat geom.Lattice, patches []geom.Lattice) func() {
	t.Helper()
	cm, err := raster.ColormapByName("gray")
	if err != nil {
		t.Fatal(err)
	}
	var chunks []*stream.Chunk
	for _, p := range patches {
		vals := make([]float64, p.NumPoints())
		for i := range vals {
			vals[i] = float64(i % 251)
		}
		c, err := stream.NewGridChunk(1, p, vals)
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, c)
	}
	eos := stream.NewEndOfSector(1, lat)
	info := stream.Info{SectorGeom: lat, HasSectorMeta: true}
	enc := raster.NewFrameEncoder(info, cm, 0, 255, pngBuffers{})
	r := &Registered{frames: newFrameHub(4), deliv: newDeliveryStats()}
	sub := r.SubscribeFrames()
	t.Cleanup(sub.Close)
	return func() {
		for _, c := range chunks {
			if _, _, err := enc.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		ef, ok, err := enc.Add(eos)
		if err != nil || !ok {
			t.Fatalf("end-of-sector gave no frame: %v", err)
		}
		if ef.Fallback != raster.Streamed {
			t.Fatalf("frame took the %s path", ef.Fallback)
		}
		r.publishFrame(ef)
		got, ok := sub.Next(time.Second)
		if !ok {
			t.Fatal("subscriber starved")
		}
		got.Release()
	}
}

// checkSteadyAllocs warms the pools with a few cycles, then pins the
// cycle's allocation count. Under the race detector pools drop items at
// random (measured 8–16 there), so the pin keeps its earlier bound.
func checkSteadyAllocs(t *testing.T, cycle func(), bound float64) {
	t.Helper()
	for i := 0; i < 8; i++ {
		cycle() // warm the pools
	}
	allocs := testing.AllocsPerRun(50, cycle)
	t.Logf("%.1f allocs per cycle", allocs)
	if raceEnabled {
		bound = 24
	}
	if allocs > bound {
		t.Fatalf("steady-state encode cycle = %.1f allocs, want <= %.0f (pool regression?)", allocs, bound)
	}
}

// TestEncodeSteadyStateAllocs pins pooled-buffer hygiene on the encode
// path for a whole-frame sector (one chunk, the image-by-image
// organisation): with the PNG writer state (compressor, scanline), the
// frame values and the frame backing all pooled, steady-state
// encode+publish+consume must run in a small constant number of
// allocations — independent of frame size or how many frames came before.
// What remains is the Frame header and the backing's pool handle; the
// bound leaves headroom without letting a pool regression (one alloc per
// scanline, per CRC, per zlib window) hide.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	lat, err := geom.NewLattice(0, 0, 1, 1, 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	checkSteadyAllocs(t, encodeCycle(t, lat, []geom.Lattice{lat}), 5)
}

// TestEncodeStreamedSectorAllocs is the row-by-row variant: a sector of
// 48 row chunks, each making the row before it final, plus end-of-sector.
// Streaming must not add allocations per row: measured 2.0, as for the
// whole frame.
func TestEncodeStreamedSectorAllocs(t *testing.T) {
	lat, err := geom.NewLattice(0, 0, 1, 1, 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]geom.Lattice, lat.H)
	for r := range rows {
		rows[r] = lat.Row(r)
	}
	checkSteadyAllocs(t, encodeCycle(t, lat, rows), 4)
}
