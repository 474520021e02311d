package main

import (
	"bytes"
	"context"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"
	"sync"
	"time"

	"geostreams/internal/geom"
	"geostreams/internal/query"
	"geostreams/internal/raster"
	"geostreams/internal/stream"
)

// The oracle computes every expected result itself, from the naive plan:
// query.Parse → query.Build with no Optimize, Fuse or sharing, over the
// pool's chunks. Frames are compared as decoded pixels, never as PNG
// bytes, so an encoder change keeps the benchmark comparable.

// naiveOutput runs the unoptimized plan of text over sector k's inputs
// and returns its output chunks.
func naiveOutput(p *pool, text string, k int64) ([]*stream.Chunk, stream.Info, error) {
	plan, err := query.Parse(text, bandSet(p))
	if err != nil {
		return nil, stream.Info{}, err
	}
	outInfo, err := query.InfoOf(plan, p.info)
	if err != nil {
		return nil, stream.Info{}, err
	}
	g := stream.NewGroup(context.Background())
	sources := map[string]*stream.Stream{}
	for b := range query.Bands(plan) {
		sources[b] = stream.FromChunks(g, p.info[b], p.sectorChunks(b, k))
	}
	out, _, err := query.Build(g, plan, sources)
	if err != nil {
		return nil, stream.Info{}, err
	}
	chunks, err := stream.Collect(context.Background(), out)
	if err != nil {
		return nil, stream.Info{}, err
	}
	return chunks, outInfo, g.Wait()
}

// frameRef holds the reference pixels of one frame query, per pool entry.
type frameRef struct {
	w, h []int
	pix  [][]byte // straight (non-premultiplied) RGBA, row-major

	mu       sync.Mutex
	verified [][]byte // per entry: PNG bytes already proven pixel-equal
	decodeNs int64
	decodePx int64
}

func newFrameRef(p *pool, text, colormap string) (*frameRef, error) {
	cm, err := raster.ColormapByName(colormap)
	if err != nil {
		return nil, err
	}
	fr := &frameRef{w: make([]int, poolSectors), h: make([]int, poolSectors),
		pix: make([][]byte, poolSectors), verified: make([][]byte, poolSectors)}
	for e := 0; e < poolSectors; e++ {
		chunks, info, err := naiveOutput(p, text, int64(e))
		if err != nil {
			return nil, fmt.Errorf("oracle %q: %w", text, err)
		}
		asm := raster.NewAssembler()
		var imgs []*raster.Image
		for _, c := range chunks {
			out, err := asm.Add(c)
			if err != nil {
				return nil, err
			}
			imgs = append(imgs, out...)
		}
		rest, err := asm.Flush()
		if err != nil {
			return nil, err
		}
		imgs = append(imgs, rest...)
		if len(imgs) != 1 {
			return nil, fmt.Errorf("oracle %q: %d frames for one sector", text, len(imgs))
		}
		rgba := imgs[0].Render(cm, info.VMin, info.VMax)
		fr.w[e], fr.h[e] = rgba.Rect.Dx(), rgba.Rect.Dy()
		fr.pix[e] = straight(rgba)
	}
	return fr, nil
}

// straight converts premultiplied RGBA pixels to non-premultiplied ones,
// the form a PNG round trip preserves.
func straight(m *image.RGBA) []byte {
	out := make([]byte, 0, 4*m.Rect.Dx()*m.Rect.Dy())
	for y := m.Rect.Min.Y; y < m.Rect.Max.Y; y++ {
		for x := m.Rect.Min.X; x < m.Rect.Max.X; x++ {
			c := color.NRGBAModel.Convert(m.RGBAAt(x, y)).(color.NRGBA)
			out = append(out, c.R, c.G, c.B, c.A)
		}
	}
	return out
}

// check verifies one received frame of sector k. A PNG byte-identical to
// one already decoded and matched for the same pool entry is accepted
// without decoding again (PNG decoding is deterministic); anything else
// is decoded and compared pixel by pixel.
func (fr *frameRef) check(k int64, data []byte) error {
	e := int(k % poolSectors)
	fr.mu.Lock()
	seen := fr.verified[e]
	fr.mu.Unlock()
	if seen != nil && bytes.Equal(seen, data) {
		return nil
	}
	t0 := time.Now()
	img, err := png.Decode(bytes.NewReader(data))
	dt := time.Since(t0)
	if err != nil {
		return fmt.Errorf("frame does not decode: %w", err)
	}
	b := img.Bounds()
	if b.Dx() != fr.w[e] || b.Dy() != fr.h[e] {
		return fmt.Errorf("frame is %dx%d, want %dx%d", b.Dx(), b.Dy(), fr.w[e], fr.h[e])
	}
	got := make([]byte, 0, 4*b.Dx()*b.Dy())
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			c := color.NRGBAModel.Convert(img.At(x, y)).(color.NRGBA)
			got = append(got, c.R, c.G, c.B, c.A)
		}
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.decodeNs += int64(dt)
	fr.decodePx += int64(b.Dx() * b.Dy())
	if !bytes.Equal(got, fr.pix[e]) {
		for i := range got {
			if got[i] != fr.pix[e][i] {
				px := i / 4
				return fmt.Errorf("pixel (%d,%d) differs from the reference", px%fr.w[e], px/fr.w[e])
			}
		}
	}
	fr.verified[e] = append([]byte(nil), data...)
	return nil
}

// regionMeans is the agg_r oracle: per tile and pool entry, the mean of
// the non-NaN vis values whose lattice points the tile contains (closed
// rectangle, the geom.RectRegion semantics).
func regionMeans(p *pool, tiles []geom.Rect) [][]float64 {
	out := make([][]float64, len(tiles))
	for t, r := range tiles {
		out[t] = make([]float64, poolSectors)
		for e := 0; e < poolSectors; e++ {
			n, sum := 0, 0.0
			for row, vals := range p.rows["vis"][e] {
				lat := p.rowLattice(row)
				if !lat.Bounds().Intersects(r) {
					continue
				}
				for c, v := range vals {
					if math.IsNaN(v) || !r.Contains(lat.Coord(c, 0)) {
						continue
					}
					n++
					sum += v
				}
			}
			out[t][e] = math.NaN()
			if n > 0 {
				out[t][e] = sum / float64(n)
			}
		}
	}
	return out
}

// meanMatches compares an agg_r value with the oracle's mean; summation
// order may differ, so equality is to 1e-9 relative.
func meanMatches(got, want float64) bool {
	if math.IsNaN(want) || math.IsNaN(got) {
		return math.IsNaN(want) && math.IsNaN(got)
	}
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// chunkRef is the expected data-chunk sequence of one sector of a
// resumed subscription: lattices and values, in delivery order.
type chunkRef struct {
	lats [][]geom.Lattice // per pool entry
	vals [][][]float64
}

func newChunkRef(p *pool, text string) (*chunkRef, error) {
	cr := &chunkRef{lats: make([][]geom.Lattice, poolSectors), vals: make([][][]float64, poolSectors)}
	for e := 0; e < poolSectors; e++ {
		chunks, _, err := naiveOutput(p, text, int64(e))
		if err != nil {
			return nil, err
		}
		for _, c := range chunks {
			if c.Kind != stream.KindGrid {
				continue
			}
			cr.lats[e] = append(cr.lats[e], c.Grid.Lat)
			cr.vals[e] = append(cr.vals[e], append([]float64(nil), c.Grid.Vals...))
			c.Release()
		}
	}
	return cr, nil
}

// sessionCheck follows one resumed subscription: sectors must continue
// from the cursor without gap or duplicate, each carrying exactly the
// reference chunks bit for bit, then its end-of-sector.
type sessionCheck struct {
	ref   *chunkRef
	next  int64 // sector expected next
	i     int   // data chunks seen in the current sector
	err   error
	bytes int64
}

func (sc *sessionCheck) add(c *stream.Chunk) {
	if sc.err != nil {
		return
	}
	k := int64(c.T)
	if k != sc.next {
		sc.err = fmt.Errorf("chunk of sector %d where sector %d was due (gap or duplicate)", k, sc.next)
		return
	}
	e := int(k % poolSectors)
	switch c.Kind {
	case stream.KindEndOfSector:
		if sc.i != len(sc.ref.lats[e]) {
			sc.err = fmt.Errorf("sector %d ended after %d of %d chunks", k, sc.i, len(sc.ref.lats[e]))
			return
		}
		sc.next++
		sc.i = 0
	case stream.KindGrid:
		if sc.i >= len(sc.ref.lats[e]) {
			sc.err = fmt.Errorf("sector %d: extra chunk %d (duplicate)", k, sc.i)
			return
		}
		if c.Grid.Lat != sc.ref.lats[e][sc.i] {
			sc.err = fmt.Errorf("sector %d chunk %d: lattice %v, want %v", k, sc.i, c.Grid.Lat, sc.ref.lats[e][sc.i])
			return
		}
		want := sc.ref.vals[e][sc.i]
		for j, v := range c.Grid.Vals {
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				sc.err = fmt.Errorf("sector %d chunk %d value %d differs", k, sc.i, j)
				return
			}
		}
		sc.bytes += int64(8 * len(c.Grid.Vals))
		sc.i++
	default:
		sc.err = fmt.Errorf("unexpected %v chunk", c.Kind)
	}
}
