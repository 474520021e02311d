package raster

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"
	"testing"

	"geostreams/internal/geom"
	"geostreams/internal/sat"
)

// translucentMap is a custom colormap with partial alpha, premultiplied
// as color.RGBA requires; it exercises the RGBA fallback for opaque frames.
func translucentMap(t float64) color.RGBA {
	a := uint8(40 + 215*t)
	return color.RGBA{R: uint8(float64(a) * t), G: a / 2, B: uint8(float64(a) * (1 - t)), A: a}
}

var encodeColormaps = []struct {
	name string
	cm   Colormap
}{
	{"gray", GrayMap}, {"ndvi", NDVIMap}, {"thermal", ThermalMap}, {"translucent", translucentMap},
}

// straightPixels renders m's pixels as non-premultiplied RGBA bytes, the
// form a PNG round trip preserves.
func straightPixels(m image.Image) []byte {
	b := m.Bounds()
	out := make([]byte, 0, 4*b.Dx()*b.Dy())
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			c := color.NRGBAModel.Convert(m.At(x, y)).(color.NRGBA)
			out = append(out, c.R, c.G, c.B, c.A)
		}
	}
	return out
}

// checkEncode asserts the encoder's contract on one image: AppendPNG
// decodes to exactly Render's pixels, appends without disturbing dst, and
// EncodePNG writes the same bytes.
func checkEncode(t *testing.T, im *Image, cm Colormap, vmin, vmax float64) {
	t.Helper()
	enc, err := im.AppendPNG(nil, cm, vmin, vmax)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := png.Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("AppendPNG output does not decode: %v", err)
	}
	if b := dec.Bounds(); b.Dx() != im.Lat.W || b.Dy() != im.Lat.H {
		t.Fatalf("decoded %dx%d, want %dx%d", b.Dx(), b.Dy(), im.Lat.W, im.Lat.H)
	}
	got, want := straightPixels(dec), straightPixels(im.Render(cm, vmin, vmax))
	if !bytes.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				px := i / 4
				t.Fatalf("pixel (%d, %d) = %v, Render gives %v", px%im.Lat.W, px/im.Lat.W,
					got[4*px:4*px+4], want[4*px:4*px+4])
			}
		}
	}

	prefix := []byte("prefix")
	app, err := im.AppendPNG(append([]byte(nil), prefix...), cm, vmin, vmax)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(app, prefix) || !bytes.Equal(app[len(prefix):], enc) {
		t.Fatal("AppendPNG onto a non-empty dst differs from onto nil")
	}
	var buf bytes.Buffer
	if err := im.EncodePNG(&buf, cm, vmin, vmax); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), enc) {
		t.Fatal("EncodePNG bytes differ from AppendPNG")
	}
}

// imageOf builds a w×h image whose cell i takes vals[i % len(vals)].
func imageOf(t testing.TB, w, h int, vals []float64) *Image {
	lat, err := geom.NewLattice(0, 0, 1, -1, w, h)
	if err != nil {
		t.Fatal(err)
	}
	im, err := NewImage(1, lat)
	if err != nil {
		t.Fatal(err)
	}
	for i := range im.Vals {
		im.Vals[i] = vals[i%len(vals)]
	}
	return im
}

func TestEncodePNGMatchesRender(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ramp := make([]float64, 97)
	for i := range ramp {
		ramp[i] = float64(i) * 2.7
	}
	cases := []struct {
		name       string
		w, h       int
		vals       []float64
		vmin, vmax float64
	}{
		{"1x1", 1, 1, []float64{42}, 0, 255},
		{"1x1 nan", 1, 1, []float64{nan}, 0, 255},
		{"odd width ramp", 7, 5, ramp, 0, 255},
		{"column", 1, 9, ramp, 0, 255},
		{"row", 13, 1, ramp, 0, 255},
		{"wide ramp", 255, 3, ramp, 10, 200},
		{"nan and infinities", 9, 4, []float64{1, nan, inf, -inf, 128, 300, -5}, 0, 255},
		{"all nan", 6, 6, []float64{nan}, 0, 255},
		{"opaque rows then translucent", 4, 4, []float64{300, 300, 300, 300, 300, 300, 300, 300, 300, 300, 0}, 0, 255},
		{"degenerate range", 5, 3, ramp, 7, 7},
		{"inverted range", 5, 3, ramp, 200, 10},
		{"infinite range", 5, 3, []float64{1, inf, -inf, nan}, math.Inf(-1), inf},
	}
	for _, tc := range cases {
		for _, m := range encodeColormaps {
			t.Run(fmt.Sprintf("%s/%s", tc.name, m.name), func(t *testing.T) {
				checkEncode(t, imageOf(t, tc.w, tc.h, tc.vals), m.cm, tc.vmin, tc.vmax)
			})
		}
	}
}

func TestEncodePNGRejectsShortValues(t *testing.T) {
	im := imageOf(t, 4, 3, []float64{1})
	im.Vals = im.Vals[:5]
	if _, err := im.AppendPNG(nil, GrayMap, 0, 1); err == nil {
		t.Fatal("AppendPNG accepted fewer values than cells")
	}
}

// FuzzEncodePNG: for any frame size, cell values (NaN and ±Inf included),
// range, and colormap, the PNG decodes to exactly Render's pixels.
func FuzzEncodePNG(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), 0.0, 255.0, []byte{7})
	f.Add(uint8(6), uint8(4), uint8(1), 0.0, 255.0, []byte{0, 1, 2, 3, 100, 200, 255})
	f.Add(uint8(31), uint8(2), uint8(2), 50.0, 50.0, []byte{9, 0, 250})
	f.Add(uint8(12), uint8(12), uint8(3), 255.0, 0.0, []byte{0})
	f.Fuzz(func(t *testing.T, w, h, cmIdx uint8, vmin, vmax float64, cells []byte) {
		if len(cells) == 0 {
			cells = []byte{128}
		}
		// Byte codes 0–2 are NaN and ±Inf; the rest spread over and past
		// the usual 0–255 stretch range.
		vals := make([]float64, len(cells))
		for i, b := range cells {
			switch b {
			case 0:
				vals[i] = math.NaN()
			case 1:
				vals[i] = math.Inf(1)
			case 2:
				vals[i] = math.Inf(-1)
			default:
				vals[i] = float64(b)*1.25 - 20
			}
		}
		m := encodeColormaps[int(cmIdx)%len(encodeColormaps)]
		// Up to 256×128 cells: a frame can span several 64 KiB deflate
		// windows, so block boundaries fall mid-frame.
		checkEncode(t, imageOf(t, 1+int(w), 1+int(h)%128, vals), m.cm, vmin, vmax)
	})
}

// ndviFrame builds a w×h NDVI frame stretched linearly to [0, 255] from a
// synthetic scene, like the stretch(ndvi(nir, vis), linear, 0, 255) query.
func ndviFrame(b *testing.B, w, h int) *Image {
	scene := sat.DefaultScene(1)
	nir, vis := scene.BandField(sat.BandNIR), scene.BandField(sat.BandVIS)
	lat, err := geom.NewLattice(-122, 38, 2/float64(w), -2/float64(h), w, h)
	if err != nil {
		b.Fatal(err)
	}
	im, err := NewImage(1, lat)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range im.Vals {
		p := lat.Coord(i%w, i/w)
		n, v := nir.Sample(p.X, p.Y, 0), vis.Sample(p.X, p.Y, 0)
		x := (n - v) / (n + v)
		im.Vals[i] = x
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	for i, x := range im.Vals {
		im.Vals[i] = 255 * (x - lo) / (hi - lo)
	}
	return im
}

// BenchmarkEncodePNG sizes the frame encoder on a 256×192 NDVI frame, the
// benchmark's sector size, reporting ns per point and bytes per frame.
func BenchmarkEncodePNG(b *testing.B) {
	im := ndviFrame(b, 256, 192)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = im.AppendPNG(buf[:0], NDVIMap, 0, 255); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(im.Lat.NumPoints()), "ns/pt")
	b.ReportMetric(float64(len(buf)), "bytes/frame")
}
