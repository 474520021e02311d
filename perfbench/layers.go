package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"geostreams/internal/cascade"
	"geostreams/internal/dsms"
	"geostreams/internal/exec"
	"geostreams/internal/geom"
	"geostreams/internal/obs/trace"
	"geostreams/internal/query"
	"geostreams/internal/raster"
	"geostreams/internal/sat"
	"geostreams/internal/store"
	"geostreams/internal/stream"
	"geostreams/internal/wire"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A metric a workload cannot produce (no store mounted, no frames)
// reads 0.
var perLayer = func() [][2]string {
	l := [][2]string{
		{"raster.encode_ns_per_pt", "ns/pt"}, {"raster.assemble_ns_per_pt", "ns/pt"}, {"raster.frame_bytes", "B"},
		{"core.busy_s_per_mpt", "s/Mpt"}, {"core.idle_share", "1"}, {"core.peak_queue", "count"},
		{"core.ndvi_stretch_ns_per_pt", "ns/pt"}, {"core.threshold_ns_per_pt", "ns/pt"},
		{"core.agg_r_ns_per_pt", "ns/pt"}, {"core.crop_ns_per_pt", "ns/pt"}, {"exec.pool_hit_ratio", "1"},
		{"dsms.frames_published", "count"}, {"dsms.frame_bytes_mean", "B"}, {"dsms.frame_shed", "count"},
		{"dsms.ws_frames", "count"}, {"dsms.ws_pong_misses", "count"}, {"dsms.encodes_per_frame", "1"},
		{"dsms.hub_shed_chunks", "count"}, {"dsms.hub_deliveries_per_chunk", "1"}, {"dsms.hub_unrouted_chunks", "count"},
		{"dsms.register_us_p50", "us"}, {"dsms.register_us_p99", "us"},
		{"share.trunks_reused_ratio", "1"}, {"share.router_matches_per_probe", "1"},
		{"share.router_crop_share_ratio", "1"}, {"share.router_route_ns_per_probe", "ns"}, {"share.router_busy_s", "s"},
		{"cascade.probe_ns", "ns"}, {"cascade.matches_per_probe", "1"}, {"cascade.insert_remove_us", "us"},
		{"query.plan_us", "us"},
		{"wire.decode_ns_per_pt", "ns/pt"}, {"wire.egress_encode_ns_per_pt", "ns/pt"}, {"wire.ingest_chunks", "count"},
		{"wire.ingest_alloc_bytes", "B"}, {"wire.egress_dropped_chunks", "count"},
		{"store.append_us_per_chunk", "us"}, {"store.replay_ring_mpts_per_s", "Mpts/s"},
		{"store.replay_disk_mpts_per_s", "Mpts/s"}, {"store.open_s", "s"}, {"store.ring_bytes_per_chunk", "B"},
		{"store.delta_share", "1"}, {"store.evicted_chunks", "count"}, {"store.tail_lags", "count"},
		{"store.disk_errors", "count"}, {"store.catchup_recent_s", "s"}, {"store.catchup_deep_s", "s"},
		{"trace.overhead_pct", "%"},
		{"gen.lag_p99_ms", "ms"}, {"gen.wake_p99_ms", "ms"}, {"gen.sustained_mpts_per_s", "Mpts/s"},
		{"client.png_decode_ns_per_pt", "ns/pt"}, {"client.egress_bytes_per_pt", "B/pt"}, {"client.failed_ratio", "1"},
	}
	for _, st := range traceStages {
		l = append(l, [2]string{"trace." + st + ".p50_us", "us"}, [2]string{"trace." + st + ".p99_us", "us"})
	}
	for _, ly := range replayLayers {
		l = append(l, [2]string{"replay." + ly + "_self_ms", "ms"})
	}
	return l
}()

// traceStages are the program's own span stages (internal/obs/trace).
var traceStages = []string{
	trace.StageIngestDecode, trace.StageHubRoute, trace.StageOperator,
	trace.StageFanout, trace.StageEncode, trace.StageDeliver, trace.StageWireEgress,
}

// replayLayers are the layer calls the replay times, in the order a chunk
// crosses them.
var replayLayers = []string{"decode", "append", "probe", "operator", "assemble", "encode"}

// replaySpec describes a workload to the replay: what it feeds, the
// layers its chunks cross, its queries and its routed rectangles.
type replaySpec struct {
	bands   []string
	path    []string
	queries []string
	frames  []frameQuery
	rects   []geom.Rect
}

type frameQuery struct{ text, colormap string }

// replaySectors is how many pool sectors each replay covers.
const replaySectors = 4

// tracedRun is the separate per-layer run: the fixed rate in four blocks,
// untraced and traced (SetTraceInterval(1)) in ABBA order so drift cancels
// out of the tracing overhead; then the program's stage histograms, the
// live counters, and the replay of the workload's inputs through each
// layer's public function.
func tracedRun(e *env, w workload, gen *generator) (report, error) {
	srv := w.server()
	rate := w.rate()
	execStart := exec.Snapshot()
	allocStart := wire.IngestAllocBytes()
	k0 := gen.first
	block := 0.15 * float64(e.cfg.seconds)
	var p50 [2][]float64
	var lag, wake []float64
	var shed int64
	total := outcome{}
	for _, traced := range []bool{false, true, true, false} {
		interval := 0
		if traced {
			interval = 1
		}
		srv.SetTraceInterval(interval)
		st := gen.run(e.ctx, rate, sectorsFor(rate, block))
		verify := w.verify
		if traced {
			verify = func(r receipt) error {
				t0 := e.clk.now()
				err := w.verify(r)
				if r.inst < 8 { // enough to follow a sector; roi-monitor has 1024
					_, eos, _ := gen.due(r.k)
					e.spans.add(span{Name: "client.receive", ID: r.k, Parent: "gen.sector", Start: eos, End: r.at})
					e.spans.add(span{Name: "client.verify", ID: r.k, Parent: "client.receive", Start: t0, End: e.clk.now()})
				}
				return err
			}
		}
		o := collect(e.ctx, e.clk, gen, e.rs, st, w.expect, verify, fixedWait)
		if traced {
			for k := st.k0; k < st.k1; k++ {
				first, eos, _ := gen.due(k)
				e.spans.add(span{Name: "gen.sector", ID: k, Start: first, End: eos})
			}
		}
		shed += addBurst(&o, w, st)
		e.rs.forget(st.k1)
		i := 0
		if traced {
			i = 1
		}
		p50[i] = append(p50[i], o.queryP50())
		lag = append(lag, st.lag...)
		wake = append(wake, st.wake...)
		total.attempted += o.attempted
		total.failed += o.failed
		total.wrong += o.wrong
		if total.firstErr == "" {
			total.firstErr = o.firstErr
		}
	}
	srv.SetTraceInterval(0)

	m := metrics{}
	for _, nu := range perLayer {
		m.set(nu[0], nu[1], 0)
	}

	fed := gen.sent() - k0
	e.fedSectors = fed
	e.fedPoints = fed * int64(w.ptsPerSector())
	w.layers(e, m)
	untraced := (p50[0][0] + p50[0][1]) / 2
	m.set("trace.overhead_pct", "%", 100*((p50[1][0]+p50[1][1])/2-untraced)/untraced)
	for _, stg := range traceStages {
		h := srv.Tracer().StageSnapshot(stg)
		m.set("trace."+stg+".p50_us", "us", 1e6*h.Quantile(0.5))
		m.set("trace."+stg+".p99_us", "us", 1e6*h.Quantile(0.99))
	}
	m.set("exec.pool_hit_ratio", "1", execHitRatio(execStart, exec.Snapshot()))
	m.set("wire.ingest_alloc_bytes", "B", float64(wire.IngestAllocBytes()-allocStart))
	m.set("gen.lag_p99_ms", "ms", quantile(lag, 0.99)/1e6)
	m.set("gen.wake_p99_ms", "ms", quantile(wake, 0.99)/1e6)
	var decNs, decPx int64
	for _, fr := range e.frames {
		fr.mu.Lock()
		decNs += fr.decodeNs
		decPx += fr.decodePx
		fr.mu.Unlock()
	}
	if decPx > 0 {
		m.set("client.png_decode_ns_per_pt", "ns/pt", float64(decNs)/float64(decPx))
	}
	m.set("client.egress_bytes_per_pt", "B/pt", float64(atomic.LoadInt64(&e.clientBytes))/float64(e.fedPoints))
	if total.attempted > 0 {
		m.set("client.failed_ratio", "1", float64(total.failed)/float64(total.attempted))
	}
	// The sustained-rate search runs after every live counter was read,
	// so its overload bursts do not leak into them.
	best, steps := search(e, w, gen, rate, total.failed == 0, 0.35*float64(e.cfg.seconds))
	m.set("gen.sustained_mpts_per_s", "Mpts/s", best*float64(w.ptsPerSector())/1e6)
	if err := replay(e, w.replaySpec(), m); err != nil {
		return report{}, fmt.Errorf("replay: %w", err)
	}
	path := filepath.Join(e.cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name(), e.cfg.seed))
	if err := e.spans.write(path); err != nil {
		return report{}, err
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d traced run: attempted %d failed %d; p50 untraced %.2f ms, traced %.2f ms; spans in %s\n",
		w.name(), e.cfg.seed, total.attempted, total.failed, untraced, (p50[1][0]+p50[1][1])/2, path)
	if total.firstErr != "" {
		fmt.Fprintf(os.Stderr, "  first failure: %s\n", total.firstErr)
	}
	fmt.Fprintf(os.Stderr, "  search: %s → sustained %.2f sectors/s\n", strings.Join(steps, " "), best)
	printSelfTimes(os.Stderr, m)
	// As in the measured run: outputs altered by shedding the server
	// counted are failures, not a correctness bug.
	return report{Correct: total.wrong == 0 || shed > 0, Attempted: total.attempted, Failed: total.failed, Metrics: m}, nil
}

func printSelfTimes(f *os.File, m metrics) {
	type kv struct {
		k string
		v float64
	}
	var l []kv
	for _, ly := range replayLayers {
		l = append(l, kv{ly, m["replay."+ly+"_self_ms"].Value})
	}
	sort.Slice(l, func(i, j int) bool { return l[i].v > l[j].v })
	fmt.Fprint(f, "  replay self time per sector (ms):")
	for _, x := range l {
		fmt.Fprintf(f, " %s=%.3f", x.k, x.v)
	}
	fmt.Fprintln(f)
}

// serverLayers reads the live counters every workload shares.
func serverLayers(e *env, srv *dsms.Server, regs []*dsms.Registered, m metrics) {
	var frames, fbytes, shed int64
	var busy, idle float64
	var peakQ int64
	framed := 0
	for _, r := range regs {
		d := r.DeliveryStats()
		frames += d.Frames
		fbytes += d.FrameBytes
		shed += d.ShedFrames
		if d.Frames > 0 {
			framed++
		}
		for _, op := range r.OperatorStats() {
			busy += op.BusySeconds
			idle += op.IdleSeconds
			if op.PeakQueueDepth > peakQ {
				peakQ = op.PeakQueueDepth
			}
		}
		m.set("wire.egress_dropped_chunks", "count", m["wire.egress_dropped_chunks"].Value+float64(r.WireStats().DroppedChunks))
	}
	m.set("dsms.frames_published", "count", float64(frames))
	if frames > 0 {
		m.set("dsms.frame_bytes_mean", "B", float64(fbytes)/float64(frames))
	}
	m.set("dsms.frame_shed", "count", float64(shed))
	ws := srv.WSStats()
	m.set("dsms.ws_frames", "count", float64(ws.Frames))
	m.set("dsms.ws_pong_misses", "count", float64(ws.PongMisses))
	if framed > 0 {
		// Every query sees every sector fed since start (warm-up included).
		m.set("dsms.encodes_per_frame", "1", float64(frames)/float64(int64(framed)*e.fedSectors))
	}
	st := srv.ServerStats()
	var dropped, delivered, unrouted int64
	for _, h := range st.Hubs {
		dropped += h.Dropped
		delivered += h.Delivered
		unrouted += h.Unrouted
	}
	chunks := e.fedSectors * (sectorH + 1) * int64(len(st.Hubs))
	m.set("dsms.hub_shed_chunks", "count", float64(dropped))
	if chunks > 0 {
		m.set("dsms.hub_deliveries_per_chunk", "1", float64(delivered)/float64(chunks))
	}
	m.set("dsms.hub_unrouted_chunks", "count", float64(unrouted))
	e.mu.Lock()
	m.set("dsms.register_us_p50", "us", quantile(e.registerUs, 0.5))
	m.set("dsms.register_us_p99", "us", quantile(e.registerUs, 0.99))
	e.mu.Unlock()
	if sh := st.Shared; sh != nil {
		if sh.Created+sh.Reused > 0 {
			m.set("share.trunks_reused_ratio", "1", float64(sh.Reused)/float64(sh.Created+sh.Reused))
		}
		var ri struct{ probes, matches, crops, shares, nanos int64 }
		var rbusy float64
		for _, r := range sh.Routers {
			ri.probes += r.Probes
			ri.matches += r.Matches
			ri.crops += r.Crops
			ri.shares += r.CropShares
			ri.nanos += r.RouteNanos
			rbusy += r.BusySeconds
		}
		if ri.probes > 0 {
			m.set("share.router_matches_per_probe", "1", float64(ri.matches)/float64(ri.probes))
			m.set("share.router_route_ns_per_probe", "ns", float64(ri.nanos)/float64(ri.probes))
		}
		if ri.crops+ri.shares > 0 {
			m.set("share.router_crop_share_ratio", "1", float64(ri.shares)/float64(ri.crops+ri.shares))
		}
		m.set("share.router_busy_s", "s", rbusy)
	}
	if e.fedPoints > 0 {
		m.set("core.busy_s_per_mpt", "s/Mpt", busy/(float64(e.fedPoints)/1e6))
	}
	if busy+idle > 0 {
		m.set("core.idle_share", "1", idle/(busy+idle))
	}
	m.set("core.peak_queue", "count", float64(peakQ))
	if in := st.Ingest; in != nil {
		m.set("wire.ingest_chunks", "count", float64(in.Chunks))
	}
	for _, b := range st.Store {
		if b.RingChunks > 0 {
			m.set("store.ring_bytes_per_chunk", "B", float64(b.RingBytes)/float64(b.RingChunks))
		}
		if b.Appended > 0 {
			m.set("store.delta_share", "1", float64(b.DeltaChunks)/float64(b.Appended))
		}
		m.set("store.evicted_chunks", "count", float64(b.Evicted))
		m.set("store.tail_lags", "count", float64(b.TailLags))
		m.set("store.disk_errors", "count", float64(b.DiskErrors))
	}
}

// layerClock accumulates wall time and work per replayed layer.
type layerClock struct {
	ns  map[string]int64
	pts map[string]int64
}

// replay drives the workload's inputs through each layer's public
// function and times every call. The layers on the workload's own path
// run as one chain per sector, each call a span under a per-sector root,
// which gives the self time per layer; the layers off the path are timed
// on the same inputs without spans, so every metric exists everywhere.
func replay(e *env, spec replaySpec, m metrics) error {
	on := map[string]bool{}
	for _, l := range spec.path {
		on[l] = true
	}
	var off []string
	for _, l := range replayLayers {
		if !on[l] {
			off = append(off, l)
		}
	}
	onClock, err := replayChain(e, spec, spec.path, true)
	if err != nil {
		return err
	}
	offClock, err := replayChain(e, spec, off, false)
	if err != nil {
		return err
	}
	lc := layerClock{ns: map[string]int64{}, pts: map[string]int64{}}
	for _, c := range []layerClock{onClock, offClock} {
		for k, v := range c.ns {
			lc.ns[k] += v
		}
		for k, v := range c.pts {
			lc.pts[k] += v
		}
	}
	per := func(name string) float64 {
		if lc.pts[name] == 0 {
			return 0
		}
		return float64(lc.ns[name]) / float64(lc.pts[name])
	}
	m.set("wire.decode_ns_per_pt", "ns/pt", per("decode"))
	m.set("wire.egress_encode_ns_per_pt", "ns/pt", per("egress"))
	m.set("store.append_us_per_chunk", "us", per("append")/1e3)
	m.set("cascade.probe_ns", "ns", per("probe"))
	if lc.pts["probe"] > 0 {
		m.set("cascade.matches_per_probe", "1", float64(lc.pts["matches"])/float64(lc.pts["probe"]))
	}
	m.set("raster.assemble_ns_per_pt", "ns/pt", per("assemble"))
	m.set("raster.encode_ns_per_pt", "ns/pt", per("encode"))
	if lc.pts["frames"] > 0 {
		m.set("raster.frame_bytes", "B", float64(lc.pts["frame_bytes"])/float64(lc.pts["frames"]))
	}
	self := e.spans.selfTime()
	for _, l := range replayLayers {
		m.set("replay."+l+"_self_ms", "ms", float64(self["replay."+l])/1e6/replaySectors)
	}
	if err := replayStore(e, m); err != nil {
		return err
	}
	replayCascade(e, spec, m)
	if err := replayPlans(e, spec, m); err != nil {
		return err
	}
	return replayOperators(e, m)
}

// replayChain runs the given layers, in path order, over replaySectors
// pool sectors.
func replayChain(e *env, spec replaySpec, layers []string, spans bool) (layerClock, error) {
	lc := layerClock{ns: map[string]int64{}, pts: map[string]int64{}}
	has := map[string]bool{}
	for _, l := range layers {
		has[l] = true
	}
	var band *store.Band
	if has["append"] {
		st, err := store.Open(store.Options{Dir: filepath.Join(e.cfg.dir, fmt.Sprintf("replay-append-%v", spans))})
		if err != nil {
			return lc, err
		}
		defer st.Close() //nolint:errcheck
		if band, err = st.Band(sat.BandVIS); err != nil {
			return lc, err
		}
	}
	tree := cascade.NewTree()
	for i, r := range spec.rects {
		tree.Insert(cascade.QueryID(i+1), r)
	}
	frames := spec.frames
	if len(frames) == 0 {
		frames = []frameQuery{{sat.BandVIS, "gray"}}
	}
	// Plans and render ranges are made once, outside the timed calls.
	type render struct {
		cm         raster.Colormap
		vmin, vmax float64
	}
	renders := make([]render, len(frames))
	for i, f := range frames {
		cm, err := raster.ColormapByName(f.colormap)
		if err != nil {
			return lc, err
		}
		info, err := outInfo(e.pool, f.text)
		if err != nil {
			return lc, err
		}
		renders[i] = render{cm, info.VMin, info.VMax}
	}
	plans := map[string]query.Node{}
	for _, q := range spec.queries {
		plan, err := serverPlan(e.pool, q)
		if err != nil {
			return lc, err
		}
		plans[q] = plan
	}
	for _, f := range frames {
		if plans[f.text] == nil {
			plan, err := serverPlan(e.pool, f.text)
			if err != nil {
				return lc, err
			}
			plans[f.text] = plan
		}
	}
	timed := func(k int64, name string, fn func() error) error {
		t0 := e.clk.now()
		err := fn()
		t1 := e.clk.now()
		lc.ns[name] += t1 - t0
		if spans {
			e.spans.add(span{Name: "replay." + name, ID: k, Parent: "replay.sector", Start: t0, End: t1})
		}
		return err
	}
	for k := int64(0); k < replaySectors; k++ {
		root := e.clk.now()
		in := map[string][]*stream.Chunk{}
		for _, b := range spec.bands {
			in[b] = e.pool.sectorChunks(b, k)
		}
		if has["decode"] {
			payloads := map[string][][]byte{}
			t0 := e.clk.now()
			for _, b := range spec.bands {
				for _, c := range in[b] {
					p, err := wire.AppendChunk(nil, c)
					if err != nil {
						return lc, err
					}
					payloads[b] = append(payloads[b], p)
					lc.pts["egress"] += int64(c.NumPoints())
				}
			}
			lc.ns["egress"] += e.clk.now() - t0
			err := timed(k, "decode", func() error {
				for _, b := range spec.bands {
					for i, p := range payloads[b] {
						c, err := wire.DecodeChunkPooled(p)
						if err != nil {
							return err
						}
						lc.pts["decode"] += int64(c.NumPoints())
						in[b][i] = c
					}
				}
				return nil
			})
			if err != nil {
				return lc, err
			}
		}
		if has["append"] {
			timed(k, "append", func() error { //nolint:errcheck
				for _, c := range in[sat.BandVIS] {
					band.Append(c)
					lc.pts["append"]++
				}
				return nil
			})
		}
		if has["probe"] {
			timed(k, "probe", func() error { //nolint:errcheck
				var ids []cascade.QueryID
				for _, b := range spec.bands {
					for _, c := range in[b] {
						if c.IsData() {
							ids = tree.Probe(c.Bounds(), ids[:0])
							lc.pts["probe"]++
							lc.pts["matches"] += int64(len(ids))
						}
					}
				}
				return nil
			})
		}
		for _, b := range spec.bands {
			for _, c := range in[b] {
				c.Release()
			}
		}
		outs := map[int][]*stream.Chunk{}
		if has["operator"] {
			err := timed(k, "operator", func() error {
				for _, q := range spec.queries {
					out, err := runPlan(e.pool, plans[q], k)
					if err != nil {
						return err
					}
					keep := -1
					for i, f := range frames {
						if f.text == q {
							keep = i
						}
					}
					if keep >= 0 {
						outs[keep] = out
						continue
					}
					for _, c := range out {
						c.Release()
					}
				}
				return nil
			})
			if err != nil {
				return lc, err
			}
		}
		var imgs []*raster.Image
		var which []int // frames index of each image
		if has["assemble"] || has["encode"] {
			for i, f := range frames {
				if outs[i] == nil {
					out, err := runPlan(e.pool, plans[f.text], k)
					if err != nil {
						return lc, err
					}
					outs[i] = out
				}
			}
			err := timed(k, "assemble", func() error {
				for i := range frames {
					asm := raster.NewAssembler()
					for _, c := range outs[i] {
						if c.IsData() {
							lc.pts["assemble"] += int64(c.NumPoints())
						}
						got, err := asm.Add(c)
						if err != nil {
							return err
						}
						imgs = append(imgs, got...)
						for range got {
							which = append(which, i)
						}
					}
				}
				return nil
			})
			if err != nil {
				return lc, err
			}
			if !has["assemble"] {
				// Assembly only fed the encoder here; its time is not
				// this chain's to report.
				delete(lc.ns, "assemble")
				delete(lc.pts, "assemble")
			}
		}
		if has["encode"] {
			err := timed(k, "encode", func() error {
				var buf bytes.Buffer
				for i, img := range imgs {
					r := renders[which[i]]
					buf.Reset()
					if err := img.EncodePNG(&buf, r.cm, r.vmin, r.vmax); err != nil {
						return err
					}
					lc.pts["encode"] += int64(img.Lat.NumPoints())
					lc.pts["frames"]++
					lc.pts["frame_bytes"] += int64(buf.Len())
				}
				return nil
			})
			if err != nil {
				return lc, err
			}
		}
		if spans {
			e.spans.add(span{Name: "replay.sector", ID: k, Start: root, End: e.clk.now()})
		}
	}
	return lc, nil
}

// outInfo is the output metadata of a query over the pool's bands.
func outInfo(p *pool, text string) (stream.Info, error) {
	plan, err := query.Parse(text, bandSet(p))
	if err != nil {
		return stream.Info{}, err
	}
	return query.InfoOf(plan, p.info)
}

func bandSet(p *pool) map[string]bool {
	out := map[string]bool{}
	for b := range p.info {
		out[b] = true
	}
	return out
}

// serverPlan plans a query as the server does: Parse, Optimize, Fuse.
func serverPlan(p *pool, text string) (query.Node, error) {
	plan, err := query.Parse(text, bandSet(p))
	if err != nil {
		return nil, err
	}
	if plan, err = query.Optimize(plan, p.info); err != nil {
		return nil, err
	}
	return query.Fuse(plan), nil
}

// runPlan builds plan over sector k's inputs and collects its output.
func runPlan(p *pool, plan query.Node, k int64) ([]*stream.Chunk, error) {
	g := stream.NewGroup(context.Background())
	sources := map[string]*stream.Stream{}
	for b := range query.Bands(plan) {
		sources[b] = stream.FromChunks(g, p.info[b], p.sectorChunks(b, k))
	}
	out, _, err := query.Build(g, plan, sources)
	if err != nil {
		return nil, err
	}
	chunks, err := stream.Collect(context.Background(), out)
	if err != nil {
		return nil, err
	}
	return chunks, g.Wait()
}

// replayStore times the store's append path and both replay tiers on the
// workload's vis sectors, and a reopen with recovery.
func replayStore(e *env, m metrics) error {
	var chunks []*stream.Chunk
	var pts int64
	for k := int64(0); k < replaySectors; k++ {
		for _, c := range e.pool.sectorChunks(sat.BandVIS, k) {
			chunks = append(chunks, c)
			pts += int64(c.NumPoints())
		}
	}
	tail := func(st *store.Store) (float64, error) {
		b, err := st.Band(sat.BandVIS)
		if err != nil {
			return 0, err
		}
		for _, c := range chunks {
			b.Append(c)
		}
		b.SealLive()
		t0 := time.Now()
		tl := b.Tail(0)
		var got int64
		for it := range tl.C() {
			got += int64(it.C.NumPoints())
			it.C.Release()
		}
		if err := tl.Err(); err != nil {
			return 0, err
		}
		if got != pts {
			return 0, fmt.Errorf("store replay returned %d of %d points", got, pts)
		}
		return float64(pts) / time.Since(t0).Seconds() / 1e6, nil
	}
	ring, err := store.Open(store.Options{RingChunks: len(chunks) + 8})
	if err != nil {
		return err
	}
	r, err := tail(ring)
	ring.Close() //nolint:errcheck
	if err != nil {
		return err
	}
	m.set("store.replay_ring_mpts_per_s", "Mpts/s", r)
	dir := filepath.Join(e.cfg.dir, "replay-disk")
	disk, err := store.Open(store.Options{Dir: dir, RingChunks: 1})
	if err != nil {
		return err
	}
	d, err := tail(disk)
	disk.Close() //nolint:errcheck
	if err != nil {
		return err
	}
	m.set("store.replay_disk_mpts_per_s", "Mpts/s", d)
	t0 := time.Now()
	again, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	_, err = again.Band(sat.BandVIS)
	m.set("store.open_s", "s", time.Since(t0).Seconds())
	again.Close() //nolint:errcheck
	if err != nil {
		return err
	}
	return nil
}

// replayCascade times insert/remove of the workload's rectangles in a
// cascade tree; probe cost comes from the chain.
func replayCascade(e *env, spec replaySpec, m metrics) {
	if len(spec.rects) == 0 {
		return
	}
	tree := cascade.NewTree()
	for i, r := range spec.rects {
		tree.Insert(cascade.QueryID(i+1), r)
	}
	t0 := time.Now()
	for i, r := range spec.rects {
		tree.Remove(cascade.QueryID(i + 1))
		tree.Insert(cascade.QueryID(i+1), r)
	}
	m.set("cascade.insert_remove_us", "us", float64(time.Since(t0))/1e3/float64(len(spec.rects)))
}

// replayPlans times Parse + Optimize + Fuse of each workload query.
func replayPlans(e *env, spec replaySpec, m metrics) error {
	const reps = 20
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for _, q := range spec.queries {
			plan, err := query.Parse(q, bandSet(e.pool))
			if err != nil {
				return err
			}
			plan, err = query.Optimize(plan, e.pool.info)
			if err != nil {
				return err
			}
			query.Fuse(plan)
		}
	}
	m.set("query.plan_us", "us", float64(time.Since(t0))/1e3/float64(reps*len(spec.queries)))
	return nil
}

// replayOperators times four representative plans over the workload's
// inputs, per input point: the NDVI stretch, a threshold, a regional
// mean and a quarter crop.
func replayOperators(e *env, m metrics) error {
	for _, op := range []struct{ name, text string }{
		{"ndvi_stretch", "stretch(ndvi(nir, vis), linear, 0, 255)"},
		{"threshold", "threshold(vis, 600, 0, 1)"},
		{"agg_r", "agg_r(rselect(vis, rect(-121.5, 36.5, -120.5, 37.5)), mean, rect(-121.5, 36.5, -120.5, 37.5))"},
		{"crop", "rselect(vis, rect(-122, 37, -121, 38))"},
	} {
		plan, err := serverPlan(e.pool, op.text)
		if err != nil {
			return err
		}
		inPts := int64(len(query.Bands(plan)) * sectorW * sectorH * replaySectors)
		t0 := time.Now()
		for k := int64(0); k < replaySectors; k++ {
			out, err := runPlan(e.pool, plan, k)
			if err != nil {
				return err
			}
			for _, c := range out {
				c.Release()
			}
		}
		m.set("core."+op.name+"_ns_per_pt", "ns/pt", float64(time.Since(t0))/float64(inPts))
	}
	return nil
}
