package raster

import (
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"image/color"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// The frame encoder writes PNG in one pass: each row of values is coloured
// through the colormap straight into an 8-bit scanline with the Sub filter
// (each byte minus the same channel of the pixel to its left), and the
// scanlines stream into a pooled zlib writer at BestSpeed. There is no
// intermediate RGBA image, no per-row filter trial and no lazy matching —
// on NDVI frames that is ~12× cheaper than image/png's default for ~20%
// more bytes (DESIGN.md §15, "Frame encoding"). The output is one fixed
// encoding: every transport serves the same bytes.

// The PNG signature (PNG spec §5.2), colour types (§11.2.2) and the Sub
// filter type (§9.2).
const (
	pngSignature  = "\x89PNG\r\n\x1a\n"
	colorTypeRGB  = 2
	colorTypeRGBA = 6
	filterSub     = 1
)

// pixel colours one value over [vmin, vmin+span]: NaN is fully
// transparent; anything else is normalised, clamped to [0, 1] and mapped
// through cm, and a degenerate range (span <= 0) maps to the midpoint.
// Render and the PNG writer both colour through pixel, so they cannot
// drift apart.
func pixel(cm Colormap, v, vmin, span float64) color.RGBA {
	if math.IsNaN(v) {
		return color.RGBA{}
	}
	t := 0.5
	if span > 0 {
		t = (v - vmin) / span
	}
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return cm(t)
}

// straight converts a premultiplied colour to the non-premultiplied form
// PNG stores, exactly as color.NRGBAModel does (without boxing).
func straight(c color.RGBA) (r, g, b, a uint8) {
	switch c.A {
	case 0xff:
		return c.R, c.G, c.B, 0xff
	case 0:
		return 0, 0, 0, 0
	}
	a16 := uint32(c.A) * 0x101
	un := func(x uint8) uint8 { return uint8(uint32(x) * 0x101 * 0xffff / a16 >> 8) }
	return un(c.R), un(c.G), un(c.B), c.A
}

// pngWriter is the pooled encode state: the deflate compressor (the one
// large allocation, its window and hash tables) and the scanline buffer,
// plus the geometry and colouring of the stream it is writing. Pools fill
// on the first frame, never at construction.
type pngWriter struct {
	zw   *zlib.Writer
	out  appendWriter // the compressor's sink: the caller's dst
	line []byte

	start    int // offset of the PNG signature in out.b
	idat     int // offset of the IDAT length field in out.b
	w, h     int
	alpha    bool
	rewrote  bool // the stream restarted as RGBA after starting as RGB
	cm       Colormap
	vmin     float64
	span     float64
	rowsDone int // rows compressed so far
}

// appendWriter is an io.Writer appending to a byte slice.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

var (
	pngWriters = sync.Pool{New: func() any { return new(pngWriter) }}
	// writersLive counts pngWriters checked out of the pool, each holding
	// a compressor; leak tests and /metrics watch it return to baseline.
	writersLive atomic.Int64
)

func getWriter() *pngWriter {
	writersLive.Add(1)
	return pngWriters.Get().(*pngWriter)
}

func putWriter(pw *pngWriter) {
	pw.out.b = nil // the pool must not pin the caller's buffer
	pw.cm = nil
	writersLive.Add(-1)
	pngWriters.Put(pw)
}

// WritersLive reports how many PNG writers — each holding one deflate
// compressor — are checked out: one per frame being encoded, including
// every sector a FrameEncoder is streaming.
func WritersLive() int64 { return writersLive.Load() }

// AppendPNG appends the image, coloured by cm over [vmin, vmax], to dst as
// a PNG stream and returns the extended slice. Pixels decode to exactly
// Render's, converted to non-premultiplied colour. The stream is RGB when
// every cell is opaque and RGBA otherwise (NaN cells, or a colormap with
// alpha).
func (im *Image) AppendPNG(dst []byte, cm Colormap, vmin, vmax float64) ([]byte, error) {
	w, h := im.Lat.W, im.Lat.H
	if w <= 0 || h <= 0 || len(im.Vals) < w*h {
		return dst, fmt.Errorf("raster: cannot encode %dx%d image with %d values", w, h, len(im.Vals))
	}
	pw := getWriter()
	defer putWriter(pw)
	alpha := false
	for _, v := range im.Vals[:w*h] {
		if math.IsNaN(v) {
			alpha = true
			break
		}
	}
	pw.begin(dst, w, h, alpha, cm, vmin, vmax)
	pw.rows(im.Vals, h)
	return pw.finish(), nil
}

// begin starts a w×h PNG stream appended to dst: the signature, IHDR and
// the header of the one IDAT chunk, whose length finish patches in once
// the deflate stream written behind it is complete.
func (pw *pngWriter) begin(dst []byte, w, h int, alpha bool, cm Colormap, vmin, vmax float64) {
	pw.start, pw.w, pw.h, pw.alpha, pw.rewrote = len(dst), w, h, alpha, false
	pw.cm, pw.vmin, pw.span = cm, vmin, vmax-vmin
	pw.restart(dst)
}

// restart writes the stream header at pw.start in dst, sized for the
// current colour type, and points a fresh deflate stream behind it.
func (pw *pngWriter) restart(dst []byte) {
	bpp, ct := 3, byte(colorTypeRGB)
	if pw.alpha {
		bpp, ct = 4, colorTypeRGBA
	}
	var ihdr [13]byte
	binary.BigEndian.PutUint32(ihdr[0:], uint32(pw.w))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(pw.h))
	ihdr[8] = 8 // bits per channel; compression, filter, interlace stay 0
	ihdr[9] = ct
	dst = append(dst[:pw.start], pngSignature...)
	dst = appendChunk(dst, "IHDR", ihdr[:])
	pw.idat = len(dst)
	pw.out.b = append(dst, 0, 0, 0, 0, 'I', 'D', 'A', 'T')
	if pw.zw == nil {
		pw.zw, _ = zlib.NewWriterLevel(&pw.out, zlib.BestSpeed) // a valid level never errs
	} else {
		pw.zw.Reset(&pw.out)
	}
	n := 1 + pw.w*bpp
	if cap(pw.line) < n {
		pw.line = make([]byte, n)
	}
	pw.line = pw.line[:n]
	pw.line[0] = filterSub
	pw.rowsDone = 0
}

// rows colours and compresses rows [pw.rowsDone, to) of vals, a row-major
// frame pw.w wide. An RGB stream that meets a colour that is not opaque
// (a NaN cell or a translucent colour) starts over as RGBA and rewrites
// every earlier row from vals, so the caller must keep rows it has already
// written unchanged.
func (pw *pngWriter) rows(vals []float64, to int) {
	w := pw.w
	for pw.rowsDone < to {
		row := vals[pw.rowsDone*w : (pw.rowsDone+1)*w]
		if pw.alpha {
			subRGBA(pw.line[1:], row, pw.cm, pw.vmin, pw.span)
		} else if !subRGB(pw.line[1:], row, pw.cm, pw.vmin, pw.span) {
			pw.alpha, pw.rewrote = true, true
			pw.restart(pw.out.b)
			continue
		}
		_, _ = pw.zw.Write(pw.line) // appendWriter never fails
		pw.rowsDone++
	}
}

// finish closes the deflate stream and appends the IDAT CRC and IEND,
// returning the completed dst. Every row must have been written.
func (pw *pngWriter) finish() []byte {
	_ = pw.zw.Close() // appendWriter cannot fail the flush
	dst := pw.out.b
	pw.out.b = nil
	binary.BigEndian.PutUint32(dst[pw.idat:], uint32(len(dst)-pw.idat-8))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Update(0, crc32.IEEETable, dst[pw.idat+4:]))
	return appendChunk(dst, "IEND", nil)
}

// subRGB colours one row into Sub-filtered RGB bytes, reporting false at
// the first colour that is not opaque.
func subRGB(line []byte, vals []float64, cm Colormap, vmin, span float64) bool {
	var pr, pg, pb uint8
	for i, v := range vals {
		c := pixel(cm, v, vmin, span)
		if c.A != 0xff {
			return false
		}
		px := line[3*i : 3*i+3 : 3*i+3]
		px[0], px[1], px[2] = c.R-pr, c.G-pg, c.B-pb
		pr, pg, pb = c.R, c.G, c.B
	}
	return true
}

// subRGBA colours one row into Sub-filtered, non-premultiplied RGBA bytes.
func subRGBA(line []byte, vals []float64, cm Colormap, vmin, span float64) {
	var pr, pg, pb, pa uint8
	for i, v := range vals {
		r, g, b, a := straight(pixel(cm, v, vmin, span))
		px := line[4*i : 4*i+4 : 4*i+4]
		px[0], px[1], px[2], px[3] = r-pr, g-pg, b-pb, a-pa
		pr, pg, pb, pa = r, g, b, a
	}
}

// appendChunk appends one PNG chunk: length, type, data, CRC of type+data.
func appendChunk(dst []byte, typ string, data []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(data)))
	start := len(dst)
	dst = append(dst, typ...)
	dst = append(dst, data...)
	return binary.BigEndian.AppendUint32(dst, crc32.Update(0, crc32.IEEETable, dst[start:]))
}

// EncodePNG writes the image as PNG using a colormap over [vmin, vmax];
// the bytes are exactly AppendPNG's.
func (im *Image) EncodePNG(w io.Writer, cm Colormap, vmin, vmax float64) error {
	buf, err := im.AppendPNG(nil, cm, vmin, vmax)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}
