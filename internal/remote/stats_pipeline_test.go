package remote

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// pipelineStatsFixture exercises every stage-record field the v8 wire
// format carries: both flags, fractional rates, and durations.
func pipelineStatsFixture() []pipeline.StageSnapshot {
	return []pipeline.StageSnapshot{
		{
			Name: "source", Kind: pipeline.KindSource,
			Workers: 1, Done: 41, ServiceEWMA: 0,
			Window: 250 * time.Millisecond, Throughput: 164, SendWait: 0.91,
		},
		{
			Name: "extract", Kind: pipeline.KindMap,
			Workers: 3, InFlight: 4, Done: 37, ServiceEWMA: 3200 * time.Microsecond,
			Window: 250 * time.Millisecond, Throughput: 148, Utilization: 0.97,
			RecvWait: 0.01, SendWait: 0.02, Critical: true,
		},
		{
			Name: "publish", Kind: pipeline.KindSink,
			Workers: 1, Done: 33, ServiceEWMA: time.Millisecond, Finished: true,
		},
	}
}

// TestStatsReportPipelineRoundTrip pins the v8 stage table: every
// field of every stage record survives encode/decode exactly, a
// report without a table still round-trips (v6-shaped payloads stay
// decodable), and truncation inside the table errors cleanly.
func TestStatsReportPipelineRoundTrip(t *testing.T) {
	in := statsFixture()
	in.Pipeline = pipelineStatsFixture()
	enc := encodeStatsReport(in)
	out, err := decodeStatsReport(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Pipeline, in.Pipeline) {
		t.Errorf("stage table mangled:\n got %+v\nwant %+v", out.Pipeline, in.Pipeline)
	}
	if out.Stats != in.Stats || len(out.Sessions) != len(in.Sessions) {
		t.Error("adding a stage table disturbed the v5 fields")
	}

	// No table encodes and decodes as an empty table.
	bare, err := decodeStatsReport(encodeStatsReport(statsFixture()))
	if err != nil {
		t.Fatal(err)
	}
	if len(bare.Pipeline) != 0 {
		t.Errorf("tableless report decoded %d stages", len(bare.Pipeline))
	}

	for name, data := range map[string][]byte{
		"truncated stage record": enc[:len(enc)-7],
		"truncated stage name":   enc[:len(enc)-1],
		"trailing bytes":         append(append([]byte(nil), enc...), 0xab),
	} {
		if _, err := decodeStatsReport(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	// A hostile stage count larger than the remaining bytes must be
	// rejected before allocation.
	base := encodeStatsReport(statsFixture())
	hostile := append(base, 0xff, 0xff)
	if _, err := decodeStatsReport(hostile); err == nil {
		t.Error("hostile stage count decoded without error")
	}
}

// TestStatsVerbPipelineTable drives the operator surface end to end: a
// service given a pipeline stats source reports the stage table over
// the wire, and clearing the source removes it.
func TestStatsVerbPipelineTable(t *testing.T) {
	srv, _ := serveMem(t, testReps(t, 1))
	srv.SetPipelineStats(func() []pipeline.StageSnapshot {
		return pipelineStatsFixture()
	})
	cli := dial(t, srv.Addr())

	r, err := cli.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if !reflect.DeepEqual(r.Pipeline, pipelineStatsFixture()) {
		t.Errorf("stage table over the wire:\n got %+v\nwant %+v", r.Pipeline, pipelineStatsFixture())
	}

	srv.SetPipelineStats(nil)
	r, err = cli.Stats()
	if err != nil {
		t.Fatalf("Stats after clear: %v", err)
	}
	if len(r.Pipeline) != 0 {
		t.Errorf("stage table still reported after SetPipelineStats(nil): %d stages", len(r.Pipeline))
	}
}
