package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"geostreams/internal/dsms"
	"geostreams/internal/geom"
	"geostreams/internal/sat"
	"geostreams/internal/store"
	"geostreams/internal/stream"
	"geostreams/internal/wire"
)

// historyCatchup exercises the store: vis arrives over one GSP connection
// and every chunk is appended to a disk-backed store (default 4096-chunk
// ring) that already holds histPreload sectors, recovered at set-up. Four
// quarter-crop frame queries read live frames in-process, while one GSP
// subscriber repeatedly resumes the first of them from a cursor a few
// sectors back (ring tier) or far back (disk only) and reads to the live
// edge.
type historyCatchup struct {
	inst
	refs    [4]*frameRef
	resume  *chunkRef
	quads   [4]string
	rects   [4]geom.Rect
	storeAt string

	st   *store.Store
	feed chan *stream.Chunk
	regs [4]*dsms.Registered
	subs [4]*dsms.FrameSub
	// shedSeen is each frame cursor's shed count already reported.
	shedSeen [4]int64
	ts       *httptest.Server
	gen      *generator
	first    int64 // first live sector

	trigger chan int64
	mu      sync.Mutex
	done    []session // finished sessions not yet tallied
	busy    sync.WaitGroup
	// catchup collects session durations per depth for the traced report.
	catchup map[string][]float64
}

// session is one resumed subscription: from the cursor at sector
// k-depth to the end-of-sector of k, the sector live at request time.
type session struct {
	depth string
	secs  float64
	err   error
}

const (
	histPreload = 64
	// A sector is 193 chunks (192 rows + punctuation), so the default
	// 4096-chunk ring holds about 21: depthRecent replays from the ring,
	// depthDeep only from the segment log.
	depthRecent  = 4
	depthDeep    = 48
	sessionEvery = 6 // sectors between resume requests
)

func (w *historyCatchup) name() string      { return "history-catchup" }
func (w *historyCatchup) rate() float64     { return 12 }
func (w *historyCatchup) ptsPerSector() int { return sectorW * sectorH }

func (w *historyCatchup) prepare(e *env) error {
	b := region
	mx, my := (b.MinX+b.MaxX)/2, (b.MinY+b.MaxY)/2
	for i, r := range []geom.Rect{
		geom.R(b.MinX, my, mx, b.MaxY), geom.R(mx, my, b.MaxX, b.MaxY),
		geom.R(b.MinX, b.MinY, mx, my), geom.R(mx, b.MinY, b.MaxX, my),
	} {
		w.rects[i] = r
		w.quads[i] = fmt.Sprintf("rselect(vis, rect(%s, %s, %s, %s))", ff(r.MinX), ff(r.MinY), ff(r.MaxX), ff(r.MaxY))
		fr, err := newFrameRef(e.pool, w.quads[i], "gray")
		if err != nil {
			return err
		}
		w.refs[i] = fr
		e.frames = append(e.frames, fr)
	}
	cr, err := newChunkRef(e.pool, w.quads[0])
	if err != nil {
		return err
	}
	w.resume = cr
	w.catchup = map[string][]float64{}
	// Pre-load history straight into the band, then close: set-up reopens
	// the store, so segment recovery is part of setup_s.
	w.storeAt = filepath.Join(e.cfg.dir, "store")
	st, err := store.Open(store.Options{Dir: w.storeAt})
	if err != nil {
		return err
	}
	band, err := st.Band(sat.BandVIS)
	if err != nil {
		return err
	}
	for k := int64(0); k < histPreload; k++ {
		for _, c := range e.pool.sectorChunks(sat.BandVIS, k) {
			band.Append(c)
		}
	}
	w.first = histPreload
	return st.Close()
}

func (w *historyCatchup) setup(e *env) error {
	st, err := store.Open(store.Options{Dir: w.storeAt})
	if err != nil {
		return err
	}
	w.st = st
	srv := w.newServer(e)
	srv.SetStore(st)
	feed, err := w.serveWireFeed(e.pool.info[sat.BandVIS])
	if err != nil {
		return err
	}
	w.feed = feed
	for i, q := range w.quads {
		reg, err := register(e, srv, q, "gray")
		if err != nil {
			return err
		}
		w.regs[i] = reg
	}
	return nil
}

func (w *historyCatchup) start(e *env) (*generator, error) {
	for i, reg := range w.regs {
		i, sub := i, reg.SubscribeFrames()
		w.subs[i] = sub
		w.goClient(func(ctx context.Context) {
			defer sub.Close()
			for ctx.Err() == nil {
				f, ok := sub.Next(500 * time.Millisecond)
				if !ok {
					if sub.Ended() {
						return
					}
					continue
				}
				png := append([]byte(nil), f.PNG...)
				atomic.AddInt64(&e.clientBytes, int64(len(png)))
				k := int64(f.Sector)
				f.Release()
				e.rs.add(receipt{inst: i, k: k, at: e.clk.now(), png: png})
			}
		})
	}
	w.ts = httptest.NewServer(w.srv.Handler())
	client := dsms.NewClient(w.ts.URL)
	band, ok := w.st.Lookup(sat.BandVIS)
	if !ok {
		return nil, fmt.Errorf("store has no %s band", sat.BandVIS)
	}
	w.trigger = make(chan int64, 1)
	w.goClient(func(ctx context.Context) { w.resumeLoop(ctx, e, client, band) })
	w.srv.Start()
	w.gen = newGenerator(e.clk, e.pool, []string{sat.BandVIS}, []chan *stream.Chunk{w.feed}, false, w.first)
	w.gen.onSector = func(k int64) {
		if (k-w.first)%sessionEvery != sessionEvery-1 {
			return
		}
		select {
		case w.trigger <- k:
			w.busy.Add(1)
		default: // the previous session is still reading
		}
	}
	return w.gen, nil
}

// resumeLoop serves resume requests: each resumes query 0 from a cursor
// depth sectors behind the sector that just ended, alternating recent and
// deep, and reads until that sector's end-of-sector arrives.
func (w *historyCatchup) resumeLoop(ctx context.Context, e *env, client *dsms.Client, band *store.Band) {
	n := 0
	for {
		var k int64
		select {
		case <-ctx.Done():
			return
		case k = <-w.trigger:
		}
		depth, name := int64(depthRecent), "recent"
		if n%2 == 1 {
			depth, name = depthDeep, "deep"
		}
		n++
		s := w.resumeOnce(e, client, band, k, depth)
		s.depth = name
		w.mu.Lock()
		w.done = append(w.done, s)
		w.mu.Unlock()
		w.busy.Done()
	}
}

func (w *historyCatchup) resumeOnce(e *env, client *dsms.Client, band *store.Band, k, depth int64) session {
	var s session
	c := k - depth
	seq, ok := band.CursorAt(c)
	if !ok {
		s.err = fmt.Errorf("no cursor for sector %d", c)
		return s
	}
	cur := wire.Cursor{Sector: c, Bands: []wire.BandSeq{{Band: sat.BandVIS, Seq: seq}}}
	t0 := e.clk.now()
	sub, err := client.SubscribeResume(int64(w.regs[0].ID), 256, cur)
	if err != nil {
		s.err = fmt.Errorf("resume from sector %d: %w", c, err)
		return s
	}
	defer sub.Close() //nolint:errcheck
	sc := &sessionCheck{ref: w.resume, next: c + 1}
	for sc.err == nil && sc.next <= k {
		ch, err := sub.Next()
		if err != nil {
			s.err = fmt.Errorf("resume from sector %d: %w", c, err)
			return s
		}
		sc.add(ch)
		ch.Release()
	}
	s.secs = float64(e.clk.now()-t0) / 1e9
	atomic.AddInt64(&e.clientBytes, sc.bytes)
	s.err = sc.err
	return s
}

func (w *historyCatchup) teardown() {
	w.stop(func() {})
	if w.ts != nil {
		w.ts.Close()
		w.ts = nil
	}
	if w.st != nil {
		w.st.Close() //nolint:errcheck
		w.st = nil
	}
}

func (w *historyCatchup) expect(int64) []int { return []int{0, 1, 2, 3} }

func (w *historyCatchup) verify(r receipt) error { return w.refs[r.inst].check(r.k, r.png) }

// burstDone waits for the burst's last session, then counts every
// session that ended as an operation: one that lost, repeated or altered
// a chunk, or could not resume, failed.
func (w *historyCatchup) burstDone(genStats) burst {
	w.busy.Wait()
	w.mu.Lock()
	done := w.done
	w.done = nil
	w.mu.Unlock()
	b := burst{shed: w.hubShed()}
	for _, s := range done {
		b.attempted++
		if s.err != nil {
			b.failed++
			b.wrong++
			if b.msg == "" {
				b.msg = s.err.Error()
			}
			continue
		}
		w.catchup[s.depth] = append(w.catchup[s.depth], s.secs)
	}
	for i, sub := range w.subs {
		n := sub.Shed()
		b.shed += n - w.shedSeen[i]
		w.shedSeen[i] = n
	}
	return b
}

func (w *historyCatchup) notes() string {
	return fmt.Sprintf("catch-up to the live edge: recent (%d sectors back, ring) median %.1f ms over %d, deep (%d back, disk) median %.1f ms over %d",
		depthRecent, 1e3*median(w.catchup["recent"]), len(w.catchup["recent"]),
		depthDeep, 1e3*median(w.catchup["deep"]), len(w.catchup["deep"]))
}

func (w *historyCatchup) replaySpec() replaySpec {
	s := replaySpec{bands: []string{sat.BandVIS}, path: replayLayers}
	for i, q := range w.quads {
		s.queries = append(s.queries, q)
		s.frames = append(s.frames, frameQuery{q, "gray"})
		s.rects = append(s.rects, w.rects[i])
	}
	return s
}

func (w *historyCatchup) layers(e *env, m metrics) {
	serverLayers(e, w.srv, w.regs[:], m)
	m.set("store.catchup_recent_s", "s", median(w.catchup["recent"]))
	m.set("store.catchup_deep_s", "s", median(w.catchup["deep"]))
}
