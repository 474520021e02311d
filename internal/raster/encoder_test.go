package raster

import (
	"bytes"
	"image/png"
	"math"
	"math/rand"
	"testing"

	"geostreams/internal/geom"
	"geostreams/internal/stream"
)

// countingBufs is a Buffers that counts what is checked out.
type countingBufs struct{ live int }

func (b *countingBufs) Get() []byte  { b.live++; return nil }
func (b *countingBufs) Put(_ []byte) { b.live-- }

// streamCase describes one generated sector stream.
type streamCase struct {
	w, h      int
	sectors   int     // 1 or 2, interleaved row by row
	shuffle   bool    // swap neighbouring rows
	dup       bool    // send some rows twice
	drop      bool    // leave some rows out
	overlap   bool    // send 3-row patches, each overlapping the last
	points    bool    // send some rows as point chunks
	mismatch  bool    // end-of-sector extent differs from the prediction
	noEOS     bool    // the stream ends without end-of-sector
	noGeom    bool    // the stream carries no sector geometry
	nanRate   float64 // share of NaN and ±Inf cells
	lateRow   int     // if > 0, resend row lateRow-1 after the last row
	bottomEOS bool    // send the last sector's end-of-sector before its other rows end
	halves    bool    // send each row as its right half, then its left half
	strided   bool    // send each row as its even columns, then its odd ones
}

// genStream builds the stream Info and the chunk sequence for sc.
func genStream(t testing.TB, rng *rand.Rand, sc streamCase) (stream.Info, []*stream.Chunk) {
	t.Helper()
	lat, err := geom.NewLattice(-10, 5, 0.25, -0.25, sc.w, sc.h)
	if err != nil {
		t.Fatal(err)
	}
	info := stream.Info{Band: "test", SectorGeom: lat, HasSectorMeta: !sc.noGeom, VMin: 0, VMax: 255}
	cell := func() float64 {
		if rng.Float64() < sc.nanRate {
			return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
		return rng.Float64()*300 - 20
	}
	patch := func(ts geom.Timestamp, pl geom.Lattice) *stream.Chunk {
		vals := make([]float64, pl.NumPoints())
		for i := range vals {
			vals[i] = cell()
		}
		c, err := stream.NewGridChunk(ts, pl, vals)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// rowChunks sends rows [r0, r0+n) whole, or split across columns.
	rowChunks := func(ts geom.Timestamp, r0, n int) []*stream.Chunk {
		rows := lat.Rows(r0, min(r0+n, sc.h))
		switch half := sc.w / 2; {
		case sc.halves && half > 0:
			return []*stream.Chunk{
				patch(ts, rows.SubGrid(half, 0, sc.w-half, rows.H)),
				patch(ts, rows.SubGrid(0, 0, half, rows.H)),
			}
		case sc.strided && half > 0:
			even, odd := rows, rows.SubGrid(1, 0, half, rows.H)
			even.DX, even.W = 2*rows.DX, sc.w-half
			odd.DX = 2 * rows.DX
			return []*stream.Chunk{patch(ts, even), patch(ts, odd)}
		}
		return []*stream.Chunk{patch(ts, rows)}
	}
	pointChunk := func(ts geom.Timestamp, r int) *stream.Chunk {
		pts := []stream.PointValue{{P: geom.Point{S: lat.Coord(-3, r), T: ts}, V: 1}} // off the frame
		for c := 0; c < sc.w; c += 1 + rng.Intn(3) {
			pts = append(pts, stream.PointValue{P: geom.Point{S: lat.Coord(c, r), T: ts}, V: cell()})
		}
		ch, err := stream.NewPointsChunk(pts)
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	perSector := make([][]*stream.Chunk, sc.sectors)
	for s := range perSector {
		ts := geom.Timestamp(100 + s)
		var seq []*stream.Chunk
		step := 1
		if sc.overlap {
			step = 2
		}
		for r := 0; r < sc.h; r += step {
			switch {
			case sc.drop && rng.Intn(4) == 0:
				continue
			case sc.points && rng.Intn(3) == 0:
				seq = append(seq, pointChunk(ts, r))
			case sc.overlap:
				seq = append(seq, rowChunks(ts, r, 3)...)
			default:
				seq = append(seq, rowChunks(ts, r, 1)...)
			}
			if sc.dup && rng.Intn(4) == 0 {
				seq = append(seq, seq[len(seq)-1])
			}
		}
		if sc.shuffle {
			for i := 0; i+1 < len(seq); i++ {
				if rng.Intn(3) == 0 {
					seq[i], seq[i+1] = seq[i+1], seq[i]
				}
			}
		}
		if sc.lateRow > 0 {
			seq = append(seq, rowChunks(ts, sc.lateRow-1, 1)...)
		}
		if !sc.noEOS {
			extent := lat
			if sc.mismatch && s == 0 {
				extent.X0 += extent.DX
			}
			eos := stream.NewEndOfSector(ts, extent)
			if sc.bottomEOS && s == sc.sectors-1 && len(seq) > 1 {
				seq = append(seq[:len(seq)-1], eos, seq[len(seq)-1])
			} else {
				seq = append(seq, eos)
			}
		}
		perSector[s] = seq
	}
	// Interleave the sectors chunk by chunk.
	var out []*stream.Chunk
	for i := 0; ; i++ {
		more := false
		for _, seq := range perSector {
			if i < len(seq) {
				out = append(out, seq[i])
				more = true
			}
		}
		if !more {
			return info, out
		}
	}
}

// refFrames is the reference: one Assembler over the whole stream and
// AppendPNG for every frame it completes, in order.
func refFrames(t testing.TB, chunks []*stream.Chunk, cm Colormap) [][]byte {
	t.Helper()
	a := NewAssembler()
	var out [][]byte
	emit := func(imgs []*Image) {
		for _, img := range imgs {
			b, err := img.AppendPNG(nil, cm, 0, 255)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
	}
	for _, c := range chunks {
		imgs, err := a.Add(c)
		if err != nil {
			t.Fatal(err)
		}
		emit(imgs)
	}
	imgs, err := a.Flush()
	if err != nil {
		t.Fatal(err)
	}
	emit(imgs)
	return out
}

// encodeStream runs chunks through a FrameEncoder and checks that it
// hands back every buffer and writer it does not pass on in a frame.
func encodeStream(t testing.TB, info stream.Info, chunks []*stream.Chunk, cm Colormap) []EncodedFrame {
	t.Helper()
	writers := WritersLive()
	bufs := &countingBufs{}
	e := NewFrameEncoder(info, cm, 0, 255, bufs)
	var out []EncodedFrame
	for _, c := range chunks {
		f, ok, err := e.Add(c)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out = append(out, f)
		}
	}
	rest, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, rest...)
	if bufs.live != len(out) {
		t.Fatalf("%d buffers checked out for %d frames", bufs.live, len(out))
	}
	if n := WritersLive(); n != writers {
		t.Fatalf("PNG writers live = %d after the stream, want %d", n, writers)
	}
	return out
}

// checkStream asserts the streaming encoder's bytes equal the reference's
// and returns the frames for further checks.
func checkStream(t testing.TB, sc streamCase, seed int64, cm Colormap) []EncodedFrame {
	t.Helper()
	info, chunks := genStream(t, rand.New(rand.NewSource(seed)), sc)
	want := refFrames(t, chunks, cm)
	got := encodeStream(t, info, chunks, cm)
	if len(got) != len(want) {
		t.Fatalf("%d frames, reference has %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].PNG, want[i]) {
			t.Fatalf("frame %d (sector %d, %s): %d bytes differ from the reference's %d",
				i, got[i].T, got[i].Fallback, len(got[i].PNG), len(want[i]))
		}
	}
	return got
}

func TestFrameEncoderMatchesAssembler(t *testing.T) {
	cases := []struct {
		name string
		sc   streamCase
		cm   Colormap
		// want is the Fallback of every frame; rewrote, whether a
		// streamed frame was rewritten as RGBA.
		want    Fallback
		rewrote bool
	}{
		{"in order", streamCase{w: 17, h: 9, sectors: 1}, NDVIMap, Streamed, false},
		{"multi-block", streamCase{w: 256, h: 120, sectors: 1}, NDVIMap, Streamed, false},
		{"multi-block two sectors", streamCase{w: 256, h: 96, sectors: 2}, GrayMap, Streamed, false},
		{"interleaved", streamCase{w: 33, h: 20, sectors: 2}, ThermalMap, Streamed, false},
		{"overlapping patches", streamCase{w: 40, h: 31, sectors: 2, overlap: true}, GrayMap, Streamed, false},
		{"duplicated rows", streamCase{w: 12, h: 40, sectors: 1, dup: true}, GrayMap, Streamed, false},
		{"missing rows", streamCase{w: 12, h: 40, sectors: 1, drop: true}, GrayMap, Streamed, true},
		{"nan and infinities", streamCase{w: 300, h: 70, sectors: 1, nanRate: 0.01}, NDVIMap, Streamed, true},
		{"partial alpha", streamCase{w: 200, h: 100, sectors: 2}, translucentMap, Streamed, true},
		{"point chunks", streamCase{w: 25, h: 30, sectors: 2, points: true}, GrayMap, Streamed, true},
		{"half-row patches", streamCase{w: 255, h: 90, sectors: 2, halves: true}, NDVIMap, Streamed, false},
		{"strided patches", streamCase{w: 99, h: 40, sectors: 1, strided: true}, ThermalMap, Streamed, false},
		{"shuffled", streamCase{w: 64, h: 64, sectors: 1, shuffle: true}, NDVIMap, OutOfOrder, false},
		{"late row", streamCase{w: 64, h: 64, sectors: 1, lateRow: 10}, NDVIMap, OutOfOrder, false},
		{"extent mismatch", streamCase{w: 48, h: 50, sectors: 1, mismatch: true}, NDVIMap, ExtentMismatch, false},
		{"no geometry", streamCase{w: 48, h: 50, sectors: 2, noGeom: true}, NDVIMap, NoGeometry, false},
		{"flush without eos", streamCase{w: 256, h: 100, sectors: 2, noEOS: true}, NDVIMap, StreamEnd, false},
		{"flush after shuffle", streamCase{w: 30, h: 30, sectors: 2, shuffle: true, noEOS: true}, GrayMap, OutOfOrder, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frames := checkStream(t, tc.sc, 1, tc.cm)
			if len(frames) != tc.sc.sectors {
				t.Fatalf("%d frames for %d sectors", len(frames), tc.sc.sectors)
			}
			for _, f := range frames {
				if f.Fallback != tc.want {
					t.Fatalf("sector %d took path %q, want %q", f.T, f.Fallback, tc.want)
				}
				if f.Fallback == Streamed && f.Rewrote != tc.rewrote {
					t.Fatalf("sector %d rewrote = %v, want %v", f.T, f.Rewrote, tc.rewrote)
				}
				if _, err := png.Decode(bytes.NewReader(f.PNG)); err != nil {
					t.Fatalf("sector %d does not decode: %v", f.T, err)
				}
			}
		})
	}
}

// TestFrameEncoderEmptySector: an end-of-sector with no data before it
// gives the same all-NaN frame Assembler does, streamed or not.
func TestFrameEncoderEmptySector(t *testing.T) {
	lat := lat4x3(t)
	for _, hasGeom := range []bool{true, false} {
		info := stream.Info{SectorGeom: lat, HasSectorMeta: hasGeom}
		chunks := []*stream.Chunk{stream.NewEndOfSector(5, lat)}
		want := refFrames(t, chunks, GrayMap)
		got := encodeStream(t, info, chunks, GrayMap)
		if len(got) != 1 || !bytes.Equal(got[0].PNG, want[0]) {
			t.Fatalf("geometry %v: empty sector differs from the reference", hasGeom)
		}
	}
}

// TestFrameEncoderDiscard: dropping the encoder mid-sector returns every
// writer and buffer it holds.
func TestFrameEncoderDiscard(t *testing.T) {
	info, chunks := genStream(t, rand.New(rand.NewSource(3)), streamCase{w: 64, h: 40, sectors: 2, noEOS: true})
	writers := WritersLive()
	bufs := &countingBufs{}
	e := NewFrameEncoder(info, GrayMap, 0, 255, bufs)
	for _, c := range chunks {
		if _, _, err := e.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if WritersLive() != writers+2 || bufs.live != 2 {
		t.Fatalf("mid-sector: %d writers, %d buffers, want 2 each", WritersLive()-writers, bufs.live)
	}
	e.Discard()
	if WritersLive() != writers || bufs.live != 0 {
		t.Fatalf("after Discard: %d writers, %d buffers still out", WritersLive()-writers, bufs.live)
	}
}

// FuzzFrameEncoder: for any stream shape — frame size up to several
// deflate windows, row order, duplicates, gaps, overlaps, point chunks,
// interleaved sectors, NaN/±Inf cells, colormap, extent and stream end —
// the streaming encoder's bytes equal Assembler + AppendPNG's.
func FuzzFrameEncoder(f *testing.F) {
	f.Add(int64(1), uint8(255), uint8(95), uint8(0), uint16(0), uint8(0))
	f.Add(int64(2), uint8(40), uint8(30), uint8(3), uint16(0x1ff), uint8(10))
	f.Add(int64(3), uint8(199), uint8(127), uint8(3), uint16(0x002), uint8(0))
	f.Add(int64(4), uint8(7), uint8(5), uint8(1), uint16(0x0c1), uint8(200))
	f.Add(int64(5), uint8(254), uint8(70), uint8(1), uint16(0x0801), uint8(0))
	f.Add(int64(6), uint8(60), uint8(20), uint8(2), uint16(0x1000), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, w, h, cmIdx uint8, flags uint16, nan uint8) {
		sc := streamCase{
			w: 1 + int(w), h: 1 + int(h)%128, sectors: 1 + int(flags&1),
			shuffle: flags&2 != 0, dup: flags&4 != 0, drop: flags&8 != 0,
			overlap: flags&16 != 0, points: flags&32 != 0, mismatch: flags&64 != 0,
			noEOS: flags&128 != 0, noGeom: flags&256 != 0, bottomEOS: flags&512 != 0,
			halves: flags&2048 != 0, strided: flags&4096 != 0,
			nanRate: float64(nan) / 2550,
		}
		if flags&1024 != 0 {
			sc.lateRow = 1 + int(nan)%sc.h
		}
		checkStream(t, sc, seed, encodeColormaps[int(cmIdx)%len(encodeColormaps)].cm)
	})
}
