package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"geostreams/internal/dsms"
	"geostreams/internal/sat"
	"geostreams/internal/stream"
)

// ndviFrames is the paper's headline product: nir and vis fed in-process,
// two frame queries — the NDVI stretch watched over one WebSocket and a
// vis threshold followed by one cursor long-poll. Operators, frame
// assembly, PNG encode, the frame hub and both viewer transports do the
// work; there is no routing, store or wire ingest.
type ndviFrames struct {
	refs [2]*frameRef
	inst
	chans []chan *stream.Chunk
	regs  [2]*dsms.Registered
	ts    *httptest.Server
	watch *dsms.FrameWatch
	shed  atomic.Int64
}

var ndviQueries = [2]struct{ text, colormap string }{
	{"stretch(ndvi(nir, vis), linear, 0, 255)", "ndvi"},
	{"threshold(vis, 600, 0, 1)", "gray"},
}

func (w *ndviFrames) name() string      { return "ndvi-frames" }
func (w *ndviFrames) rate() float64     { return 15 }
func (w *ndviFrames) ptsPerSector() int { return 2 * sectorW * sectorH }

func (w *ndviFrames) prepare(e *env) error {
	for i, q := range ndviQueries {
		fr, err := newFrameRef(e.pool, q.text, q.colormap)
		if err != nil {
			return err
		}
		w.refs[i] = fr
		e.frames = append(e.frames, fr)
	}
	return nil
}

func (w *ndviFrames) setup(e *env) error {
	srv := w.newServer(e)
	w.chans = nil
	for _, b := range []string{sat.BandNIR, sat.BandVIS} {
		ch := make(chan *stream.Chunk, stream.DefaultBuffer)
		w.chans = append(w.chans, ch)
		if err := srv.AddSource(&stream.Stream{Info: e.pool.info[b], C: ch}); err != nil {
			return err
		}
	}
	for i, q := range ndviQueries {
		reg, err := register(e, srv, q.text, q.colormap)
		if err != nil {
			return err
		}
		w.regs[i] = reg
	}
	return nil
}

func (w *ndviFrames) start(e *env) (*generator, error) {
	w.ts = httptest.NewServer(w.srv.Handler())
	c := dsms.NewClient(w.ts.URL)
	fw, err := c.Watch(int64(w.regs[0].ID))
	if err != nil {
		return nil, fmt.Errorf("watch: %w", err)
	}
	w.watch = fw
	w.goClient(func(ctx context.Context) {
		var lastShed int64
		for {
			f, err := fw.Next(time.Hour)
			if err != nil {
				return // closed at teardown
			}
			w.shed.Add(f.Shed - lastShed)
			lastShed = f.Shed
			e.rs.add(receipt{inst: 0, k: f.Sector, at: e.clk.now(), png: f.PNG})
			atomic.AddInt64(&e.clientBytes, int64(len(f.PNG)))
		}
	})
	fc := c.Frames(int64(w.regs[1].ID))
	w.goClient(func(ctx context.Context) {
		var lastShed int64
		for ctx.Err() == nil {
			f, ok, err := fc.Next(500 * time.Millisecond)
			if err != nil || !ok {
				if fc.Ended() {
					return
				}
				continue
			}
			w.shed.Add(f.Shed - lastShed)
			lastShed = f.Shed
			e.rs.add(receipt{inst: 1, k: f.Sector, at: e.clk.now(), png: f.PNG})
			atomic.AddInt64(&e.clientBytes, int64(len(f.PNG)))
		}
	})
	w.srv.Start()
	return newGenerator(e.clk, e.pool, []string{sat.BandNIR, sat.BandVIS}, w.chans, true, 0), nil
}

func (w *ndviFrames) teardown() {
	w.stop(func() {
		if w.watch != nil {
			w.watch.Close() //nolint:errcheck
			w.watch = nil
		}
	})
	if w.ts != nil {
		w.ts.Close()
		w.ts = nil
	}
}

func (w *ndviFrames) expect(int64) []int { return []int{0, 1} }

func (w *ndviFrames) verify(r receipt) error { return w.refs[r.inst].check(r.k, r.png) }

func (w *ndviFrames) burstDone(genStats) burst {
	return burst{shed: w.hubShed() + w.shed.Swap(0)}
}

func (w *ndviFrames) replaySpec() replaySpec {
	s := replaySpec{bands: []string{sat.BandNIR, sat.BandVIS}, path: []string{"operator", "assemble", "encode"}}
	for _, q := range ndviQueries {
		s.queries = append(s.queries, q.text)
		s.frames = append(s.frames, frameQuery{q.text, q.colormap})
	}
	return s
}

func (w *ndviFrames) layers(e *env, m metrics) { serverLayers(e, w.srv, w.regs[:], m) }
