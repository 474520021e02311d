package main

import (
	"context"
	"sync"
	"time"

	"geostreams/internal/exec"
	"geostreams/internal/geom"
	"geostreams/internal/stream"
)

// clock is the run's monotonic time base: every due time, receipt and span
// is nanoseconds since the same epoch.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// generator is the open-loop load source: one goroutine sends every row of
// every band at its due time, regardless of how the server keeps up. Rows
// are spread evenly over the sector period (a GOES-like scan, not bursts);
// the end-of-sector punctuation follows the last row at the same due time.
type generator struct {
	clk    clock
	pool   *pool
	bands  []string
	outs   []chan *stream.Chunk
	pooled bool // copy rows into pool-backed chunks (in-process feeding)

	// onSector, when set, is called from the generator goroutine right
	// after sector k's punctuation was handed to the server. It must not
	// block.
	onSector func(k int64)

	first int64 // first sector id this generator sends

	mu       sync.Mutex
	next     int64
	dueFirst map[int64]int64
	dueEOS   map[int64]int64
}

func newGenerator(clk clock, p *pool, bands []string, outs []chan *stream.Chunk, pooled bool, first int64) *generator {
	return &generator{clk: clk, pool: p, bands: bands, outs: outs, pooled: pooled,
		first: first, next: first, dueFirst: map[int64]int64{}, dueEOS: map[int64]int64{}}
}

// sent returns the id of the next sector to send.
func (g *generator) sent() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.next
}

// due returns the due times of sector k's first row and punctuation.
func (g *generator) due(k int64) (first, eos int64, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	first, ok = g.dueFirst[k]
	return first, g.dueEOS[k], ok
}

// genStats summarises one paced burst of sectors [k0, k1).
type genStats struct {
	k0, k1 int64
	end    int64 // due time of the last punctuation
	// lag is, per row send, how late the send completed against its due
	// time (backpressure included); wake is how late the generator woke
	// for it (the generator's own timing error).
	lag, wake []float64
}

// run sends n sectors at rate sectors/s, starting now, and returns once
// the last punctuation was handed over (or ctx ended).
func (g *generator) run(ctx context.Context, rate float64, n int) genStats {
	g.mu.Lock()
	k0 := g.next
	g.next += int64(n)
	g.mu.Unlock()
	rowEvery := float64(time.Second) / rate / sectorH
	start := g.clk.now() + int64(time.Millisecond)
	st := genStats{k0: k0, k1: k0,
		lag: make([]float64, 0, n*sectorH), wake: make([]float64, 0, n*sectorH)}
	send := func(b int, c *stream.Chunk) bool {
		select {
		case g.outs[b] <- c:
			return true
		case <-ctx.Done():
			c.Release()
			return false
		}
	}
	for j := 0; j < n; j++ {
		k := k0 + int64(j)
		first := start + int64(float64(j*sectorH)*rowEvery)
		last := start + int64(float64(j*sectorH+sectorH-1)*rowEvery)
		g.mu.Lock()
		g.dueFirst[k], g.dueEOS[k] = first, last
		g.mu.Unlock()
		e := g.pool.entry(k)
		for r := 0; r < sectorH; r++ {
			due := start + int64(float64(j*sectorH+r)*rowEvery)
			if d := due - g.clk.now(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			woke := g.clk.now()
			ingest := time.Now().UnixNano()
			for b, band := range g.bands {
				c := g.rowChunk(band, e, k, r)
				c.StampIngest(ingest)
				if !send(b, c) {
					return st
				}
			}
			done := g.clk.now()
			st.wake = append(st.wake, float64(woke-due))
			st.lag = append(st.lag, float64(done-due))
		}
		for b := range g.bands {
			eos := stream.NewEndOfSector(geom.Timestamp(k), g.pool.extent)
			eos.StampIngest(time.Now().UnixNano())
			if !send(b, eos) {
				return st
			}
		}
		st.k1 = k + 1
		st.end = last
		if g.onSector != nil {
			g.onSector(k)
		}
	}
	return st
}

// rowChunk builds row r of pool entry e stamped as sector k. In-process
// feeds get a pool-backed copy (the ownership the wire decoder hands the
// server); wire feeds share the pool's slice, since the feeder only reads
// it to encode.
func (g *generator) rowChunk(band string, e int, k int64, r int) *stream.Chunk {
	src := g.pool.rows[band][e][r]
	lat := g.pool.rowLattice(r)
	var c *stream.Chunk
	var err error
	if g.pooled {
		vals := exec.AllocVals(len(src))
		copy(vals, src)
		c, err = stream.NewPooledGridChunk(geom.Timestamp(k), lat, vals)
	} else {
		c, err = stream.NewGridChunk(geom.Timestamp(k), lat, src)
	}
	if err != nil {
		panic(err) // pool lattices and row lengths agree by construction
	}
	return c
}
