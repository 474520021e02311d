package dsms

import (
	"context"
	"testing"
	"time"

	"geostreams/internal/raster"
	"geostreams/internal/stream"
)

// TestStreamingEncodePoolsBalance: the compressor and frame backing a
// sector holds while it streams go back to their pools however the
// sector ends — in order, deregistered mid-sector, an out-of-order row
// that forces the end-of-sector fallback, or the stream ending with no
// end-of-sector — and each frame is counted under the path it took.
func TestStreamingEncodePoolsBalance(t *testing.T) {
	info := wireTestInfo(t, "vis")
	full := info.SectorGeom
	row := func(r int) *stream.Chunk {
		vals := make([]float64, full.W)
		for i := range vals {
			vals[i] = float64(r*10 + i)
		}
		c, err := stream.NewGridChunk(1, full.Row(r), vals)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	eos := func() *stream.Chunk { return stream.NewEndOfSector(1, full) }
	cases := []struct {
		name string
		// feed drives the source; it returns once the sector is under way
		// or complete.
		feed func(src chan<- *stream.Chunk)
		// path is the frame's expected path; -1 when no frame is awaited
		// before deregistering.
		path raster.Fallback
	}{
		{"in order", func(src chan<- *stream.Chunk) {
			src <- row(0)
			src <- row(1)
			src <- row(2)
			src <- eos()
		}, raster.Streamed},
		{"deregister mid-sector", func(src chan<- *stream.Chunk) {
			src <- row(0)
			src <- row(1) // makes row 0 final: a writer is taken
		}, -1},
		{"out of order", func(src chan<- *stream.Chunk) {
			src <- row(0)
			src <- row(2)
			src <- row(1) // row 1 was already written, as NaN
			src <- eos()
		}, raster.OutOfOrder},
		{"flush", func(src chan<- *stream.Chunk) {
			src <- row(0)
			src <- row(1)
			src <- row(2)
			close(src)
		}, raster.StreamEnd},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pngBase, writersBase := settledEncodeLive()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s := NewServer(ctx)
			defer s.Close() //nolint:errcheck
			src := make(chan *stream.Chunk, 8)
			if err := s.AddSource(&stream.Stream{Info: info, C: src}); err != nil {
				t.Fatal(err)
			}
			r, err := s.Register("vis", DeliveryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
			tc.feed(src)
			if tc.path < 0 {
				waitUntil(t, "a writer taken mid-sector", func() bool {
					return raster.WritersLive() > writersBase
				})
			} else {
				waitUntil(t, "the frame", func() bool { return r.deliv.frames.Load() == 1 })
				if n := r.deliv.assembled[tc.path].Load(); n != 1 {
					t.Fatalf("frames on the %q path = %d, want 1", tc.path, n)
				}
			}
			if err := s.Deregister(r.ID); err != nil {
				t.Fatal(err)
			}
			waitUntil(t, "pools back to baseline", func() bool {
				return pngLive.Load() == pngBase && raster.WritersLive() == writersBase
			})
		})
	}
}

// settledEncodeLive reads pngLive and the PNG writer count once both have
// held still, so an earlier test's asynchronous teardown cannot shift
// the baseline.
func settledEncodeLive() (int64, int64) {
	png, writers := pngLive.Load(), raster.WritersLive()
	for still, deadline := 0, time.Now().Add(2*time.Second); still < 10 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if p, w := pngLive.Load(), raster.WritersLive(); p != png || w != writers {
			png, writers, still = p, w, 0
		} else {
			still++
		}
	}
	return png, writers
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
