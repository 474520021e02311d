package main

import (
	"context"
	"fmt"
	"math/rand"

	"geostreams/internal/geom"
	"geostreams/internal/sat"
	"geostreams/internal/stream"
)

// Sector geometry shared by every workload: a GOES-like row-by-row scan of
// 256×192 points over a 2°×2° window.
const (
	sectorW = 256
	sectorH = 192
	// poolSectors distinct sectors are rendered once per run; the generator
	// re-stamps them with advancing sector ids, so scene synthesis never
	// runs while the server is measured.
	poolSectors = 16
)

var region = geom.R(-122, 36, -120, 38)

// pool is the constant input set of one run: poolSectors sectors of the
// nir and vis bands, each rendered from sat.DefaultScene with a scene
// seed drawn from the run's seed. Entry p holds the rows of one sector;
// sector k of a run replays entry k mod poolSectors.
type pool struct {
	info   map[string]stream.Info
	extent geom.Lattice
	rows   map[string][][][]float64 // band → entry → row → values
}

func (p *pool) entry(k int64) int { return int(k % poolSectors) }

// rowLattice is the lattice of row r of a sector.
func (p *pool) rowLattice(r int) geom.Lattice { return p.extent.Rows(r, r+1) }

// bytes reports the pool's value storage.
func (p *pool) bytes() int64 {
	return int64(len(p.rows)) * poolSectors * sectorW * sectorH * 8
}

func newPool(seed int64) (*pool, error) {
	bands := []string{sat.BandNIR, sat.BandVIS}
	p := &pool{info: map[string]stream.Info{}, rows: map[string][][][]float64{}}
	for _, b := range bands {
		p.rows[b] = make([][][]float64, poolSectors)
	}
	// Each entry is a different scene drawn from the seed, so the cost of
	// a run (PNG compressibility above all) averages over many scenes
	// instead of following one.
	rng := rand.New(rand.NewSource(seed))
	for e := 0; e < poolSectors; e++ {
		im, err := sat.NewLatLonImager(region, sectorW, sectorH, sat.DefaultScene(rng.Int63()),
			bands, stream.RowByRow, 1)
		if err != nil {
			return nil, err
		}
		g := stream.NewGroup(context.Background())
		streams, err := im.Streams(g)
		if err != nil {
			return nil, err
		}
		p.extent = im.Sector
		for i, b := range bands {
			p.info[b] = im.Info(im.Bands[i])
			chunks, err := stream.Collect(context.Background(), streams[b])
			if err != nil {
				return nil, err
			}
			for _, c := range chunks {
				if c.Kind != stream.KindGrid {
					continue
				}
				if c.Grid.Lat.H != 1 || c.Grid.Lat.W != sectorW {
					return nil, fmt.Errorf("pool: unexpected chunk lattice %v", c.Grid.Lat)
				}
				p.rows[b][e] = append(p.rows[b][e], c.Grid.Vals)
			}
			if len(p.rows[b][e]) != sectorH {
				return nil, fmt.Errorf("pool: band %s entry %d has %d rows", b, e, len(p.rows[b][e]))
			}
		}
		if err := g.Wait(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// sectorChunks builds the full chunk sequence of sector k for one band
// (rows then end-of-sector), sharing the pool's value slices. The chunks
// are ordinary (not pool-backed), so nothing downstream recycles them.
func (p *pool) sectorChunks(band string, k int64) []*stream.Chunk {
	rows := p.rows[band][p.entry(k)]
	out := make([]*stream.Chunk, 0, len(rows)+1)
	for r, vals := range rows {
		c, err := stream.NewGridChunk(geom.Timestamp(k), p.rowLattice(r), vals)
		if err != nil {
			panic(err) // the pool's own lattices are valid by construction
		}
		out = append(out, c)
	}
	return append(out, stream.NewEndOfSector(geom.Timestamp(k), p.extent))
}
