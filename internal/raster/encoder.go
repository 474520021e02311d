package raster

import (
	"fmt"
	"math"

	"geostreams/internal/exec"
	"geostreams/internal/geom"
	"geostreams/internal/stream"
)

// FrameEncoder turns a stream of chunks into PNG frames, deflating each
// sector's rows while the sector is still arriving so that end-of-sector
// only has the tail left to write (DESIGN.md §15, "Streaming the encode").
//
// Chunks are placed into the sector's frame on the lattice the stream
// predicts (its Info.SectorGeom). A row is final once a chunk for a later
// row arrives — the row-by-row organisation of a scanning instrument —
// and final rows are coloured, Sub-filtered and compressed at once. Every
// shortcut is verified, and on any doubt the encoder falls back to exactly
// Assembler + AppendPNG over the sector's chunks, which it keeps for that
// purpose; either way the bytes are the same.
type FrameEncoder struct {
	lat        geom.Lattice // predicted sector lattice, valid when hasLat
	hasLat     bool
	cm         Colormap
	vmin, vmax float64
	bufs       Buffers

	sectors map[geom.Timestamp]*sector
	order   []geom.Timestamp // pending sectors by first arrival
	cols    []int            // scratch: frame column of each chunk column
	spare   *sector          // a retired sector, reused by the next one
}

// Buffers lends a FrameEncoder the byte slices frames are written into.
// Get returns an empty slice; Put takes back one the encoder will not
// hand out. A slice carried out in an EncodedFrame belongs to the caller.
type Buffers interface {
	Get() []byte
	Put([]byte)
}

// Fallback says why a frame was not streamed and took the end-of-sector
// path (Assembler + AppendPNG) instead.
type Fallback int

const (
	// Streamed: the frame was encoded as its rows arrived.
	Streamed Fallback = iota
	// OutOfOrder: a chunk landed in a row that was already written.
	OutOfOrder
	// ExtentMismatch: the end-of-sector extent differs from the
	// predicted lattice.
	ExtentMismatch
	// NoGeometry: the stream carries no valid sector geometry.
	NoGeometry
	// StreamEnd: the stream ended before the sector's end-of-sector.
	StreamEnd
	// NumFallbacks counts the values above.
	NumFallbacks
)

var fallbackNames = [NumFallbacks]string{"", "out_of_order", "extent_mismatch", "no_geometry", "stream_end"}

func (f Fallback) String() string { return fallbackNames[f] }

// EncodedFrame is one finished frame. PNG came from the encoder's Buffers
// and now belongs to the caller.
type EncodedFrame struct {
	T    geom.Timestamp
	W, H int
	PNG  []byte
	// Fallback is Streamed, or why the frame took the end-of-sector path.
	Fallback Fallback
	// Rewrote reports a streamed frame that started as RGB and was
	// rewritten as RGBA from row 0 when a NaN or translucent colour
	// appeared.
	Rewrote bool
}

// sector is one pending sector: the chunks it has received (kept for the
// fallback) and, while the speculation holds, its frame values on the
// predicted lattice and the deflate stream its final rows went into.
type sector struct {
	chunks   []*stream.Chunk
	fallback Fallback
	vals     []float64  // nil until the first chunk is placed
	pw       *pngWriter // nil until the first row is written
}

// NewFrameEncoder builds an encoder for a stream described by info,
// colouring frames by cm over [vmin, vmax] into byte slices from bufs.
// Nothing is allocated until the first chunk arrives.
func NewFrameEncoder(info stream.Info, cm Colormap, vmin, vmax float64, bufs Buffers) *FrameEncoder {
	e := &FrameEncoder{cm: cm, vmin: vmin, vmax: vmax, bufs: bufs,
		sectors: make(map[geom.Timestamp]*sector)}
	if info.HasSectorMeta && info.SectorGeom.Validate() == nil {
		e.lat, e.hasLat = info.SectorGeom, true
	}
	return e
}

// Add feeds one chunk and, on end-of-sector, returns the sector's frame
// (ok is true). Like Assembler.Add it consumes the caller's reference.
func (e *FrameEncoder) Add(c *stream.Chunk) (f EncodedFrame, ok bool, err error) {
	switch c.Kind {
	case stream.KindEndOfSector:
		return e.endSector(c)
	case stream.KindGrid, stream.KindPoints:
		s := e.sectors[c.T]
		if s == nil {
			s = e.newSector()
			e.sectors[c.T] = s
			e.order = append(e.order, c.T)
		}
		s.chunks = append(s.chunks, c)
		if s.fallback == Streamed {
			e.stream(s, c)
		}
		return f, false, nil
	}
	kind := c.Kind
	c.Release()
	return f, false, fmt.Errorf("raster: unknown chunk kind %v", kind)
}

func (e *FrameEncoder) newSector() *sector {
	s := e.spare
	e.spare = nil
	if s == nil {
		s = new(sector)
	}
	if !e.hasLat {
		s.fallback = NoGeometry
	}
	return s
}

// stream places c into s's frame and writes every row the chunk makes
// final, abandoning the speculation if c lands in a row already written.
func (e *FrameEncoder) stream(s *sector, c *stream.Chunk) {
	if s.vals == nil {
		s.vals = nanVals(e.lat.NumPoints())
	}
	lo, placed := e.place(s.vals, c)
	if !placed {
		return
	}
	if lo < s.written() {
		e.abandon(s, OutOfOrder)
		return
	}
	e.writeRows(s, lo)
}

// written is the number of rows of s already in its deflate stream.
func (s *sector) written() int {
	if s.pw == nil {
		return 0
	}
	return s.pw.rowsDone
}

// writeRows compresses s's rows up to (not including) row to, taking the
// sector's writer and buffer on its first written row.
func (e *FrameEncoder) writeRows(s *sector, to int) {
	if to == 0 {
		return
	}
	if s.pw == nil {
		s.pw = getWriter()
		s.pw.begin(e.bufs.Get(), e.lat.W, e.lat.H, false, e.cm, e.vmin, e.vmax)
	}
	s.pw.rows(s.vals, to)
}

// place copies c's values into vals, a frame on the predicted lattice,
// exactly where Assembler would put them on that lattice (nearest cell,
// later chunks overwrite earlier ones). It returns the lowest frame row it
// wrote, and false if no point of c falls on the frame.
func (e *FrameEncoder) place(vals []float64, c *stream.Chunk) (lo int, placed bool) {
	lat := e.lat
	lo = lat.H
	if c.Kind == stream.KindPoints {
		for _, pv := range c.Points {
			col, row, ok := lat.Index(pv.P.S)
			if ok {
				vals[row*lat.W+col] = pv.V
				lo = min(lo, row)
			}
		}
		return lo, lo < lat.H
	}
	// Grid points are computed as Chunk.ForEachPoint computes them and
	// indexed through Lattice.Index, one column and one row at a time:
	// Index rounds each axis independently.
	g := c.Grid.Lat
	cols := e.cols[:0]
	for col := 0; col < g.W; col++ {
		fc, _, ok := lat.Index(geom.Vec2{X: g.X0 + float64(col)*g.DX, Y: lat.Y0})
		if !ok {
			fc = -1
		}
		cols = append(cols, fc)
	}
	e.cols = cols
	// An aligned chunk maps onto a run of frame columns: copy whole rows.
	contiguous, hit := len(cols) > 0 && cols[0] >= 0, false
	for i, fc := range cols {
		contiguous = contiguous && fc == cols[0]+i
		hit = hit || fc >= 0
	}
	if !hit {
		return lo, false
	}
	for row := 0; row < g.H; row++ {
		y := g.Y0 + float64(row)*g.DY
		_, fr, ok := lat.Index(geom.Vec2{X: lat.X0, Y: y})
		if !ok {
			continue
		}
		src := c.Grid.Vals[row*g.W : (row+1)*g.W]
		dst := vals[fr*lat.W : (fr+1)*lat.W]
		if contiguous {
			copy(dst[cols[0]:], src)
		} else {
			for i, fc := range cols {
				if fc >= 0 {
					dst[fc] = src[i]
				}
			}
		}
		lo = min(lo, fr)
		placed = true
	}
	return lo, placed
}

// endSector finishes the sector c closes: the streamed tail when the
// speculation held and the extent is the predicted one, the fallback
// otherwise.
func (e *FrameEncoder) endSector(c *stream.Chunk) (EncodedFrame, bool, error) {
	t, extent := c.T, c.Sector.Extent
	s := e.sectors[t]
	if s != nil {
		delete(e.sectors, t)
		e.dropOrder(t)
	} else {
		s = e.newSector()
	}
	if s.fallback == Streamed && !extent.Equal(e.lat) {
		e.abandon(s, ExtentMismatch)
	}
	if s.fallback != Streamed {
		f, ok, err := e.assemble(s, c)
		e.retire(s)
		return f, ok, err
	}
	c.Release()
	if s.vals == nil {
		s.vals = nanVals(e.lat.NumPoints())
	}
	e.writeRows(s, e.lat.H)
	f := EncodedFrame{T: t, W: e.lat.W, H: e.lat.H, PNG: s.pw.finish(), Rewrote: s.pw.rewrote}
	e.retire(s)
	return f, true, nil
}

// assemble is the fallback: the sector's chunks, then eos (nil at stream
// end), run through an Assembler and AppendPNG.
func (e *FrameEncoder) assemble(s *sector, eos *stream.Chunk) (EncodedFrame, bool, error) {
	a := NewAssembler()
	for _, ch := range s.chunks {
		_, _ = a.Add(ch) // data chunks never fail or complete a frame
	}
	clear(s.chunks) // the Assembler owns the references now
	s.chunks = s.chunks[:0]
	var imgs []*Image
	var err error
	if eos != nil {
		imgs, err = a.Add(eos)
	} else {
		imgs, err = a.Flush()
	}
	if err != nil || len(imgs) == 0 {
		return EncodedFrame{}, false, err
	}
	img := imgs[0]
	defer img.Recycle()
	buf := e.bufs.Get()
	png, err := img.AppendPNG(buf, e.cm, e.vmin, e.vmax)
	if err != nil {
		e.bufs.Put(buf)
		return EncodedFrame{}, false, err
	}
	return EncodedFrame{T: img.T, W: img.Lat.W, H: img.Lat.H, PNG: png, Fallback: s.fallback}, true, nil
}

// abandon gives up streaming s; its chunks wait for the fallback.
func (e *FrameEncoder) abandon(s *sector, why Fallback) {
	s.fallback = why
	e.release(s)
}

// release returns s's writer, with the buffer of a stream it never
// finished, and its frame values.
func (e *FrameEncoder) release(s *sector) {
	if s.pw != nil {
		if s.pw.out.b != nil {
			e.bufs.Put(s.pw.out.b)
		}
		putWriter(s.pw)
		s.pw = nil
	}
	if s.vals != nil {
		exec.Recycle(s.vals)
		s.vals = nil
	}
}

// retire releases everything s still holds and keeps it for reuse.
func (e *FrameEncoder) retire(s *sector) {
	e.release(s)
	for _, ch := range s.chunks {
		ch.Release()
	}
	clear(s.chunks)
	s.chunks = s.chunks[:0]
	s.fallback = Streamed
	e.spare = s
}

func (e *FrameEncoder) dropOrder(t geom.Timestamp) {
	for i, u := range e.order {
		if u == t {
			e.order = append(e.order[:i], e.order[i+1:]...)
			return
		}
	}
}

// Flush ends the stream: every pending sector is assembled from its
// chunks, in order of first arrival, as Assembler.Flush would.
func (e *FrameEncoder) Flush() ([]EncodedFrame, error) {
	var out []EncodedFrame
	for len(e.order) > 0 {
		t := e.order[0]
		e.order = e.order[1:]
		s := e.sectors[t]
		delete(e.sectors, t)
		if s.fallback == Streamed {
			e.abandon(s, StreamEnd)
		}
		f, ok, err := e.assemble(s, nil)
		e.retire(s)
		if err != nil {
			return out, err
		}
		if ok {
			out = append(out, f)
		}
	}
	return out, nil
}

// Discard drops every pending sector without encoding it, returning the
// chunks, writers, buffers and frame values it holds.
func (e *FrameEncoder) Discard() {
	for t, s := range e.sectors {
		e.retire(s)
		delete(e.sectors, t)
	}
	e.order = e.order[:0]
}

// nanVals returns an all-NaN frame of n values from the grid-buffer pool.
func nanVals(n int) []float64 {
	vals := exec.AllocVals(n)
	for i := range vals {
		vals[i] = math.NaN()
	}
	return vals
}
