package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/server"
	"github.com/imgrn/imgrn/internal/synth"
)

func smallDataset(t *testing.T) *synth.Dataset {
	t.Helper()
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: 40, NMin: 10, NMax: 16, LMin: 10, LMax: 14,
		Dist: synth.Uniform, GenePool: 24, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// schedules draws the same open-loop window twice from fresh workloads.
func schedules(t *testing.T, mk func() workload, seed uint64) (*schedule, *schedule) {
	t.Helper()
	var out [2]*schedule
	for i := range out {
		lg := &loadGen{w: mk(), seed: seed}
		s, err := lg.makeSchedule(lg.phaseGen(3, false), 80, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out[0], out[1]
}

func TestSameSeedSameScheduleAndBodies(t *testing.T) {
	ds := smallDataset(t)
	makers := map[string]func() workload{
		"explore_mc": func() workload { return &exploreMC{ds: ds} },
		"cluster_rw": func() workload {
			w := &clusterRW{ds: ds}
			if err := w.prepare(nil, nil); err != nil {
				t.Fatal(err)
			}
			return w
		},
	}
	for name, mk := range makers {
		a, b := schedules(t, mk, 7)
		if len(a.ops) < 100 {
			t.Fatalf("%s: only %d arrivals in 2 s at 80/s", name, len(a.ops))
		}
		if !reflect.DeepEqual(a.offsets, b.offsets) {
			t.Errorf("%s: same seed gave different arrival schedules", name)
		}
		for i := range a.ops {
			if a.ops[i].kind != b.ops[i].kind || !bytes.Equal(a.ops[i].body, b.ops[i].body) {
				t.Fatalf("%s: request %d differs under the same seed", name, i)
			}
		}
		c, _ := schedules(t, mk, 8)
		if reflect.DeepEqual(a.offsets, c.offsets) || bytes.Equal(a.ops[0].body, c.ops[0].body) {
			t.Errorf("%s: a different seed gave the same schedule", name)
		}
	}
}

func TestClusterWritesRemoveOnlyThisPhasesAdds(t *testing.T) {
	w := &clusterRW{ds: smallDataset(t)}
	if err := w.prepare(nil, nil); err != nil {
		t.Fatal(err)
	}
	lg := &loadGen{w: w, seed: 3}
	s, err := lg.makeSchedule(lg.phaseGen(3, false), 200, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	added := map[int]bool{}
	adds, removes := 0, 0
	for _, o := range s.ops {
		switch o.kind {
		case kindAdd:
			adds++
			added[o.source] = true
		case kindRemove:
			removes++
			if !added[o.source] {
				t.Fatalf("remove of source %d precedes its add", o.source)
			}
			delete(added, o.source)
		}
	}
	if adds == 0 || removes == 0 || len(added) > clusterMaxLive {
		t.Errorf("adds=%d removes=%d live=%d", adds, removes, len(added))
	}
}

func TestTailPercentileRule(t *testing.T) {
	for n := 1; n <= 5000; n++ {
		r := tailRank(n)
		if r == 0 {
			if n > 21 {
				t.Fatalf("n=%d: no tail reported", n)
			}
			continue
		}
		p99 := int(math.Ceil(0.99 * float64(n)))
		if n-r < 10 || r > p99 {
			t.Fatalf("n=%d: tail rank %d leaves %d samples beyond it (p99 rank %d)", n, r, n-r, p99)
		}
		if r != p99 && n-r != 10 {
			t.Fatalf("n=%d: rank %d is not the highest allowed", n, r)
		}
	}
	if got := tailRank(1000); got != 990 {
		t.Errorf("tailRank(1000) = %d, want 990 (p99)", got)
	}
	if got := tailRank(200); got != 190 {
		t.Errorf("tailRank(200) = %d, want 190 (p95)", got)
	}
	var d dist
	for i := 1; i <= 200; i++ {
		d.add(float64(i))
	}
	d.fail()
	p50, tail, level := d.quantiles()
	if p50 != 101 || tail != 191 || level < 95 || level > 95.1 {
		t.Errorf("quantiles = %v, %v at p%v; want 101, 191 at p95.02", p50, tail, level)
	}
}

func validReply() server.QueryResponse {
	return server.QueryResponse{
		Answers: []server.AnswerJSON{{
			Source: 3, Prob: 0.8, Genes: []string{"1", "2", "5"},
			Edges: []server.EdgeJSON{{S: 0, T: 1, Prob: 0.9}, {S: 1, T: 2, Prob: 0.95}},
		}},
		Stats: server.QueryStats{Plan: &server.PlanJSON{Mode: "fixed", Samples: 192}},
	}
}

func TestCorruptedAnswerIsCaught(t *testing.T) {
	exists := func(src int) bool { return src == 3 }
	check := func(resp server.QueryResponse) error {
		r := &result{op: &op{kind: kindQuery, widths: []int{3}}, body: mustJSON(resp), status: 200}
		_, err := checkReply(r, exists)
		return err
	}
	if err := check(validReply()); err != nil {
		t.Fatalf("valid reply rejected: %v", err)
	}
	corrupt := map[string]func(*server.QueryResponse){
		"Pr above 1":         func(r *server.QueryResponse) { r.Answers[0].Prob = 1.2 },
		"Pr at alpha":        func(r *server.QueryResponse) { r.Answers[0].Prob = alpha },
		"unknown source":     func(r *server.QueryResponse) { r.Answers[0].Source = 99 },
		"missing gene":       func(r *server.QueryResponse) { r.Answers[0].Genes = r.Answers[0].Genes[:2] },
		"edge below gamma":   func(r *server.QueryResponse) { r.Answers[0].Edges[1].Prob = gamma / 2 },
		"edge outside query": func(r *server.QueryResponse) { r.Answers[0].Edges[0].T = 7 },
		"no answers array":   func(r *server.QueryResponse) { r.Answers = nil },
		"no plan in stats":   func(r *server.QueryResponse) { r.Stats.Plan = nil },
		"edge prob zero":     func(r *server.QueryResponse) { r.Answers[0].Edges[0].Prob = 0 },
	}
	for name, mutate := range corrupt {
		resp := validReply()
		mutate(&resp)
		if err := check(resp); err == nil {
			t.Errorf("%s: corrupted reply passed the check", name)
		}
	}

	// Schema: an unknown field is a schema violation.
	body := strings.Replace(string(mustJSON(validReply())), `"answers"`, `"extra":1,"answers"`, 1)
	if _, err := checkReply(&result{op: &op{kind: kindQuery, widths: []int{3}}, body: []byte(body)}, exists); err == nil {
		t.Error("unknown field passed the schema check")
	}

	// Oracle comparison: one changed probability is a mismatch.
	want := []core.Answer{{Source: 3, Prob: 0.8}}
	if err := sameAnswers(validReply().Answers, want); err != nil {
		t.Fatalf("matching oracle rejected: %v", err)
	}
	want[0].Prob = 0.8000001
	if err := sameAnswers(validReply().Answers, want); err == nil {
		t.Error("probability mismatch with the oracle passed")
	}

	// A batch stream without its done frame, or with an item missing.
	stats := validReply().Stats
	frame := mustJSON(server.BatchFrameJSON{Index: 0, Answers: validReply().Answers, Stats: &stats})
	done := mustJSON(server.BatchDoneJSON{Done: true, Queries: 1})
	bo := &op{kind: kindBatch, widths: []int{3}}
	if _, err := checkReply(&result{op: bo, body: append(append(frame, '\n'), done...)}, exists); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if _, err := checkReply(&result{op: bo, body: frame}, exists); err == nil {
		t.Error("batch without a done frame passed")
	}
	bo2 := &op{kind: kindBatch, widths: []int{3, 3}}
	if _, err := checkReply(&result{op: bo2, body: append(append(frame, '\n'), done...)}, exists); err == nil {
		t.Error("batch with a missing item passed")
	}
}

func TestRemovedSourceInLaterAnswerIsCaught(t *testing.T) {
	w := &clusterRW{ds: smallDataset(t)}
	if err := w.prepare(nil, nil); err != nil {
		t.Fatal(err)
	}
	const src = 123456
	w.issued[src] = true
	ack := time.Now()
	w.removed[src] = ack
	if !w.exists(src, ack.Add(-time.Millisecond)) {
		t.Error("source rejected in a reply to a request sent before its remove was acknowledged")
	}
	if w.exists(src, ack.Add(time.Millisecond)) {
		t.Error("source accepted in a reply to a request sent after its remove was acknowledged")
	}
	if w.exists(src+1, ack) {
		t.Error("never-added source accepted")
	}
}

func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = x.Name
		}
		return out
	}
	var wl []string
	for _, w := range workloads {
		wl = append(wl, w.name)
	}
	if got := names(spec.Workloads); !reflect.DeepEqual(got, wl) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", got, wl)
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", got, endToEndMetrics)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark reports %v", got, perLayerMetrics)
	}
}

// TestShortRuns runs every workload briefly, untraced and traced: each
// must serve requests with no error and report every summary metric.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts every deployment shape")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "5", "--seconds", "2", "--trace", trace}, &out, &errOut)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s\n%s", w.name, trace, code, out.String(), errOut.String())
			}
			var sum summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
				t.Fatalf("%s trace=%s: last line is not the summary: %v", w.name, trace, err)
			}
			if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.name, trace, sum.Correct, sum.Attempted, sum.Failed)
			}
			want := endToEndMetrics
			if trace == "1" {
				want = perLayerMetrics
			}
			if len(sum.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, trace, len(sum.Metrics), len(want))
			}
			if trace == "0" {
				var peak float64
				for _, l := range lines {
					if f := strings.Fields(l); len(f) > 2 && f[0] == "metric" && f[1] == "peak_qps" {
						peak, _ = strconv.ParseFloat(f[2], 64)
					}
				}
				if !(peak > 0) {
					t.Errorf("%s: peak_qps %v", w.name, peak)
				}
			}
		}
	}
}
