package main

// The tables below are the benchmark's contract: BENCHMARK.json at the
// root of the repo is generated from them (-spec) and a test keeps the
// two equal. Workload and metric names are fixed; later issues cite
// them.

const (
	beamStream  = "beam_stream"
	fieldStream = "field_stream"
	viewFetch   = "view_fetch"
	viewRender  = "view_render"
	fleetStream = "fleet_stream"
	insituLive  = "insitu_live"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{beamStream, "Section 2 chain streamed locally from frame files: pario, octree/sortx, hybrid extract, point splats and the ray cast share the frame; remote does none"},
	{fieldStream, "Section 3 chain streamed locally: FDTD, field-line seeding, SOS triangle strips; the rasterizer used differently from the splats, no octree, hybrid or volren"},
	{viewFetch, "fat-client viewers scrub a DirStore over the wire: store reads, framing, delta and hybrid decode, socket copies and allocation; no rendering"},
	{viewRender, "thin-client viewers orbit the same store: server-side volren+render and the framebuffer codecs dominate, bytes are 20-90x smaller than view_fetch"},
	{fleetStream, "beam_stream's inputs with extract and render placed on two in-process workers: the difference from beam_stream is the distribution overhead"},
	{insituLive, "a live simulation publishes into a LiveRing served to two inline subscribers: the write side, where serving may slow the producer or delay the picture"},
}

// metricDef describes one metric. Bound is the share of the parent's
// median by which an end-to-end metric may get worse. Home lists the
// workloads whose traced session measures a per-layer metric at full
// size; Moves says which end-to-end metric it should move, written
// before any measurement.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Home   []string
	Moves  string
	// Exact marks a count the program makes that repeats exactly for a
	// fixed seed: two runs of one commit must agree on it to the digit.
	Exact bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// The bounds are what this two-core sandbox can resolve (README.md,
// "Bounds"): its speed wanders by a tenth and more over minutes, so
// the timings get the contract's widest bound; the counts, which
// repeat to a few percent, get the issue's tenth or less.
// frame_latency_p90_ms and cpu_ms_per_frame are not here: they did not
// repeat within that bound in the driver's own two sets of ten runs
// (README.md, "Demoted") and are per-layer metrics.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "frames_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "frame_latency_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "first_frame_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "bytes_per_frame", Unit: "B", Better: lower, Bound: 0.05},
	{Name: "allocs_per_frame", Unit: "1", Better: lower, Bound: 0.10},
}

var (
	streams    = []string{beamStream, fieldStream, fleetStream}
	beamChains = []string{beamStream, fleetStream}
	views      = []string{viewFetch, viewRender}
	all        = []string{beamStream, fieldStream, viewFetch, viewRender, fleetStream, insituLive}
)

const (
	movesBeam   = "frames_per_s, frame_latency_*, cpu_ms_per_frame on beam_stream and (less) fleet_stream; not view_fetch or field_stream"
	movesField  = "frames_per_s, frame_latency_*, cpu_ms_per_frame on field_stream only"
	movesFetch  = "frame_latency_*, allocs_per_frame, proc.alloc_mb_per_frame on view_fetch; not view_render"
	movesRender = "frame_latency_*, frames_per_s on view_render; the codecs also bytes_per_frame there"
	movesFleet  = "frames_per_s, bytes_per_frame, allocs_per_frame on fleet_stream only; beam_stream is the control"
	movesLive   = "frame_latency_* on insitu_live; a lower frames_per_s there means serving backpressured the simulation"
	movesNone   = "context for reading the other rows"
)

var perLayer = []metricDef{
	{Name: "pario.read_ms", Unit: "ms", Better: lower, Home: beamChains, Moves: movesBeam},
	{Name: "pario.read_mb_per_s", Unit: "MB/s", Better: higher, Home: beamChains, Moves: movesBeam},
	{Name: "beam.project_ms", Unit: "ms", Better: lower, Home: beamChains, Moves: movesBeam},
	{Name: "beam.step_ms", Unit: "ms", Better: lower, Home: []string{insituLive}, Moves: "bounds frames_per_s on insitu_live"},
	{Name: "beam.particle_steps_per_s", Unit: "1/s", Better: higher, Home: []string{insituLive}, Moves: "bounds frames_per_s on insitu_live"},
	{Name: "octree.build_ms", Unit: "ms", Better: lower, Home: beamChains, Moves: movesBeam},
	{Name: "octree.points_per_s", Unit: "1/s", Better: higher, Home: []string{beamStream}, Moves: movesBeam},
	{Name: "octree.nodes", Unit: "count", Better: lower, Home: []string{beamStream}, Moves: movesNone, Exact: true},
	{Name: "sortx.pairs_ms", Unit: "ms", Better: lower, Home: []string{beamStream}, Moves: "beam_stream only through octree.build_ms"},
	{Name: "sortx.keys_per_s", Unit: "1/s", Better: higher, Home: []string{beamStream}, Moves: "beam_stream only through octree.build_ms"},
	{Name: "hybrid.extract_ms", Unit: "ms", Better: lower, Home: beamChains, Moves: movesBeam},
	{Name: "hybrid.points_out", Unit: "count", Better: higher, Home: []string{beamStream}, Moves: movesNone, Exact: true},
	{Name: "hybrid.rep_bytes", Unit: "B", Better: lower, Home: []string{beamStream}, Moves: "bytes_per_frame on beam_stream", Exact: true},
	{Name: "hybrid.decode_ms", Unit: "ms", Better: lower, Home: []string{viewFetch}, Moves: movesFetch},
	{Name: "hybrid.decode_mb_per_s", Unit: "MB/s", Better: higher, Home: []string{viewFetch}, Moves: movesFetch},
	{Name: "hybrid.encode_ms", Unit: "ms", Better: lower, Home: []string{insituLive}, Moves: movesLive},
	{Name: "render.points_ms", Unit: "ms", Better: lower, Home: []string{beamStream}, Moves: movesBeam + "; also view_render"},
	{Name: "render.fragments", Unit: "count", Better: lower, Home: []string{beamStream}, Moves: movesNone, Exact: true},
	{Name: "render.frag_per_s", Unit: "1/s", Better: higher, Home: []string{beamStream}, Moves: movesBeam + "; also view_render"},
	{Name: "render.tri_fragments", Unit: "count", Better: lower, Home: []string{fieldStream}, Moves: movesField, Exact: true},
	{Name: "render.triangles", Unit: "count", Better: lower, Home: []string{fieldStream}, Moves: movesNone, Exact: true},
	{Name: "render.rle_encode_ms", Unit: "ms", Better: lower, Home: []string{viewRender}, Moves: movesRender},
	{Name: "render.rle_decode_ms", Unit: "ms", Better: lower, Home: []string{viewRender}, Moves: movesRender},
	{Name: "render.quant_encode_ms", Unit: "ms", Better: lower, Home: []string{viewRender}, Moves: movesRender},
	{Name: "render.quant_decode_ms", Unit: "ms", Better: lower, Home: []string{viewRender}, Moves: movesRender},
	{Name: "render.rle_bytes_per_px", Unit: "B/px", Better: lower, Home: []string{viewRender}, Moves: "bytes_per_frame on view_render", Exact: true},
	{Name: "render.quant_bytes_per_px", Unit: "B/px", Better: lower, Home: []string{viewRender}, Moves: "bytes_per_frame on view_render", Exact: true},
	{Name: "render.delta_decode_ms", Unit: "ms", Better: lower, Home: []string{viewFetch}, Moves: movesFetch},
	{Name: "render.partial_decode_ms", Unit: "ms", Better: lower, Home: []string{fleetStream}, Moves: movesFleet},
	{Name: "render.partial_bytes", Unit: "B", Better: lower, Home: []string{fleetStream}, Moves: "bytes_per_frame on fleet_stream", Exact: true},
	{Name: "volren.raycast_ms", Unit: "ms", Better: lower, Home: beamChains, Moves: movesBeam + "; also view_render"},
	{Name: "volren.samples", Unit: "count", Better: lower, Home: beamChains, Moves: movesNone, Exact: true},
	{Name: "volren.samples_per_s", Unit: "1/s", Better: higher, Home: beamChains, Moves: movesBeam + "; also view_render"},
	{Name: "volren.still_ms", Unit: "ms", Better: lower, Home: []string{viewRender}, Moves: movesRender},
	{Name: "emsim.advance_ms", Unit: "ms", Better: lower, Home: []string{fieldStream}, Moves: movesField},
	{Name: "emsim.cell_steps_per_s", Unit: "1/s", Better: higher, Home: []string{fieldStream}, Moves: movesField},
	{Name: "seeding.seed_ms", Unit: "ms", Better: lower, Home: []string{fieldStream}, Moves: movesField},
	{Name: "seeding.lines", Unit: "count", Better: higher, Home: []string{fieldStream}, Moves: movesNone, Exact: true},
	{Name: "fieldline.points", Unit: "count", Better: lower, Home: []string{fieldStream}, Moves: movesNone, Exact: true},
	{Name: "fieldline.trace_ms", Unit: "ms", Better: lower, Home: []string{fieldStream}, Moves: "field_stream through seeding.seed_ms"},
	{Name: "fieldline.points_per_s", Unit: "1/s", Better: higher, Home: []string{fieldStream}, Moves: "field_stream through seeding.seed_ms"},
	{Name: "sos.render_ms", Unit: "ms", Better: lower, Home: []string{fieldStream}, Moves: movesField},
	{Name: "compositor.depth_ms", Unit: "ms", Better: lower, Home: []string{fleetStream}, Moves: movesFleet},
	{Name: "pipeline.overlap_ratio", Unit: "ratio", Better: higher, Home: streams, Moves: "frames_per_s on the stream workloads without layer times falling: orchestration, not kernels"},
	{Name: "pipeline.handoff_ns", Unit: "ns", Better: lower, Home: []string{beamStream}, Moves: "nothing while it stays 1e4-1e5 times below the stage bodies"},
	{Name: "remote.ping_us", Unit: "us", Better: lower, Home: views, Moves: movesFetch},
	{Name: "remote.get_ms", Unit: "ms", Better: lower, Home: []string{viewFetch}, Moves: movesFetch},
	{Name: "remote.get_bytes", Unit: "B", Better: lower, Home: []string{viewFetch}, Moves: "bytes_per_frame on view_fetch", Exact: true},
	{Name: "remote.getdelta_ms", Unit: "ms", Better: lower, Home: []string{viewFetch}, Moves: movesFetch},
	{Name: "remote.getdelta_bytes", Unit: "B", Better: lower, Home: []string{viewFetch}, Moves: "bytes_per_frame on view_fetch", Exact: true},
	{Name: "remote.render_ms", Unit: "ms", Better: lower, Home: []string{viewRender}, Moves: movesRender},
	{Name: "remote.render_bytes_lossless", Unit: "B", Better: lower, Home: []string{viewRender}, Moves: "bytes_per_frame on view_render", Exact: true},
	{Name: "remote.render_bytes_preview", Unit: "B", Better: lower, Home: []string{viewRender}, Moves: "bytes_per_frame on view_render", Exact: true},
	{Name: "remote.render_overhead_ms", Unit: "ms", Better: lower, Home: []string{viewRender}, Moves: movesRender},
	{Name: "remote.store.read_ms", Unit: "ms", Better: lower, Home: views, Moves: movesFetch},
	{Name: "remote.store.decode_ms", Unit: "ms", Better: lower, Home: views, Moves: "frame_latency_* on view_render once per four requests"},
	{Name: "remote.service.frame_encodes", Unit: "count", Better: lower, Home: views, Moves: movesNone},
	{Name: "remote.service.delta_encodes", Unit: "count", Better: lower, Home: views, Moves: movesNone},
	{Name: "remote.service.delta_hit_share", Unit: "ratio", Better: higher, Home: views, Moves: movesFetch},
	{Name: "remote.service.renders", Unit: "count", Better: lower, Home: views, Moves: movesNone},
	{Name: "remote.service.render_hit_share", Unit: "ratio", Better: higher, Home: views, Moves: movesRender},
	{Name: "remote.compute_extract_ms", Unit: "ms", Better: lower, Home: []string{fleetStream}, Moves: movesFleet},
	{Name: "remote.extract_req_bytes", Unit: "B", Better: lower, Home: []string{fleetStream}, Moves: "bytes_per_frame on fleet_stream", Exact: true},
	{Name: "remote.extract_rep_bytes", Unit: "B", Better: lower, Home: []string{fleetStream}, Moves: "bytes_per_frame on fleet_stream", Exact: true},
	{Name: "remote.extract_overhead_ms", Unit: "ms", Better: lower, Home: []string{fleetStream}, Moves: movesFleet},
	{Name: "remote.compute_render_ms", Unit: "ms", Better: lower, Home: []string{fleetStream}, Moves: movesFleet},
	{Name: "remote.fleet.attempts", Unit: "count", Better: lower, Home: []string{fleetStream}, Moves: movesNone, Exact: true},
	{Name: "remote.fleet.retries", Unit: "count", Better: lower, Home: []string{fleetStream}, Moves: movesFleet},
	{Name: "remote.publish_ms", Unit: "ms", Better: lower, Home: []string{insituLive}, Moves: movesLive + "; must stay non-blocking"},
	{Name: "remote.push_bytes", Unit: "B", Better: lower, Home: []string{insituLive}, Moves: "bytes_per_frame on insitu_live", Exact: true},
	{Name: "remote.service.delivered_share", Unit: "ratio", Better: higher, Home: []string{insituLive}, Moves: "informational: latest-wins may skip"},
	{Name: "remote.service.encodes_per_frame", Unit: "ratio", Better: lower, Home: []string{insituLive}, Moves: movesLive + "; must stay about 1"},
	{Name: "frame_latency_p90_ms", Unit: "ms", Better: lower, Home: all, Moves: "demoted from end-to-end: a burst of host load inside a run moves it whole"},
	{Name: "cpu_ms_per_frame", Unit: "ms", Better: lower, Home: all, Moves: "demoted from end-to-end: follows the host's memory contention; catches speed bought with more cores"},
	{Name: "proc.alloc_mb_per_frame", Unit: "MB", Better: lower, Home: all, Moves: "demoted from end-to-end: on field_stream it depends on when the collector empties render's scratch pool"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: lower, Home: all, Moves: movesNone},
	{Name: "proc.gc_cycles", Unit: "count", Better: lower, Home: all, Moves: "cpu_ms_per_frame, frame_latency_p90_ms"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: lower, Home: all, Moves: "frame_latency_p90_ms"},
	{Name: "proc.gomaxprocs", Unit: "count", Better: higher, Home: all, Moves: movesNone},
	{Name: "proc.num_cpu", Unit: "count", Better: higher, Home: all, Moves: movesNone},
	{Name: "trace.coverage", Unit: "ratio", Better: higher, Home: all, Moves: "nothing: the check that the layer table is complete"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: lower, Home: all, Moves: "nothing: what tracing costs"},
}

// spec is the content of BENCHMARK.json.
func spec() map[string]any {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ee []e2e
	for _, m := range endToEnd {
		ee = append(ee, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	var ll []layer
	for _, m := range perLayer {
		ll = append(ll, layer{m.Name, m.Unit, m.Better})
	}
	return map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   workloadDefs,
		"end_to_end":  ee,
		"per_layer":   ll,
	}
}

// runSeconds is how long one run measures; the driver passes it back as
// --seconds.
const runSeconds = 15

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, m := range defs {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}
