package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/server"
	"github.com/imgrn/imgrn/internal/wal"
)

// span is one timed call into a layer. Spans of one replayed request
// share req; parent is the index of the enclosing span, -1 for a root.
type span struct {
	Req    int       `json:"req"`
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine.
type tracer struct {
	spans []span
}

func (t *tracer) begin(req, parent int, name string) int {
	t.spans = append(t.spans, span{Req: req, ID: len(t.spans), Parent: parent, Name: name, Start: time.Now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = time.Now() }

// selfTimes returns each span's duration minus the part of it its
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, c := range children[i] {
			a, b := t.spans[c].Start, t.spans[c].End
			if a.Before(s.Start) {
				a = s.Start
			}
			if b.After(s.End) {
				b = s.End
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		var curA, curB time.Time
		for k, v := range ivs {
			if k == 0 || v.a.After(curB) {
				covered += curB.Sub(curA)
				curA, curB = v.a, v.b
			} else if v.b.After(curB) {
				curB = v.b
			}
		}
		covered += curB.Sub(curA)
		out[i] = s.End.Sub(s.Start) - covered
	}
	return out
}

// layerSelf is the mean self time per replayed request of each span
// name, in ms, with the number of spans behind it.
type layerSelf struct {
	name string
	ms   float64
	n    int
}

func (t *tracer) summary(requests int) []layerSelf {
	self := t.selfTimes()
	idx := map[string]int{}
	var out []layerSelf
	for i, s := range t.spans {
		k, ok := idx[s.Name]
		if !ok {
			k = len(out)
			idx[s.Name] = k
			out = append(out, layerSelf{name: s.Name})
		}
		out[k].ms += ms(self[i])
		out[k].n++
	}
	for i := range out {
		out[i].ms /= float64(requests)
	}
	return out
}

func (t *tracer) selfOf(name string, requests int) (float64, bool) {
	for _, l := range t.summary(requests) {
		if l.name == name {
			return l.ms, true
		}
	}
	return 0, false
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// replay re-executes a seeded sample of a phase's successful requests
// layer by layer through the public calls the servers make, one span per
// call: plan resolution, shard.(*Coordinator).InferGraphContext, one
// QueryShardGraph per shard under a scatter span, core.MergeAnswerRuns,
// and json.Marshal of the reply; adds replay wal.EncodeAddMatrix,
// Writer.Append and Sync on a scratch log with fsync on. It returns the
// number of read and write requests replayed.
func replay(t *tracer, d *deployment, ph *phase, rng *randgen.Rand, walPath string, reads, writes int) (int, int, error) {
	var readOps, writeOps []*op
	for _, o := range ph.ok {
		switch o.kind {
		case kindQuery, kindGraph:
			readOps = append(readOps, o)
		case kindAdd:
			writeOps = append(writeOps, o)
		}
	}
	readOps = sample(rng, readOps, reads)
	writeOps = sample(rng, writeOps, writes)
	for i, o := range readOps {
		if err := replayRead(t, d, i, o); err != nil {
			return 0, 0, fmt.Errorf("replaying request %d: %w", i, err)
		}
	}
	if len(writeOps) > 0 {
		w, _, err := wal.Open(walPath, false, nil)
		if err != nil {
			return 0, 0, err
		}
		defer w.Close()
		for i, o := range writeOps {
			if err := replayWrite(t, w, len(readOps)+i, o.matrix); err != nil {
				return 0, 0, err
			}
		}
	}
	return len(readOps), len(writeOps), nil
}

func sample(rng *randgen.Rand, ops []*op, k int) []*op {
	if len(ops) <= k {
		return ops
	}
	idx := rng.SampleWithoutReplacement(len(ops), k)
	sort.Ints(idx)
	out := make([]*op, k)
	for i, j := range idx {
		out[i] = ops[j]
	}
	return out
}

func parseIDs(names []string) ([]gene.ID, error) {
	ids := make([]gene.ID, len(names))
	for i, s := range names {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, err
		}
		ids[i] = gene.ID(v)
	}
	return ids, nil
}

func replayRead(t *tracer, d *deployment, req int, o *op) error {
	ctx := context.Background()
	root := t.begin(req, -1, "request")
	defer t.end(root)

	var (
		wp  server.ParamsJSON
		mq  *gene.Matrix
		q   *grn.Graph
		ids []gene.ID
		err error
	)
	if o.kind == kindGraph {
		var in server.GraphQueryRequest
		if err := json.Unmarshal(o.body, &in); err != nil {
			return err
		}
		if ids, err = parseIDs(in.Genes); err != nil {
			return err
		}
		wp, q = in.Params, grn.NewGraph(ids)
		for _, e := range in.Edges {
			q.SetEdge(e.S, e.T, e.Prob)
		}
	} else {
		var in server.QueryRequest
		if err := json.Unmarshal(o.body, &in); err != nil {
			return err
		}
		if ids, err = parseIDs(in.Genes); err != nil {
			return err
		}
		wp = in.Params
		if mq, err = gene.NewMatrix(-1, ids, in.Columns); err != nil {
			return err
		}
	}

	sp := t.begin(req, root, "plan")
	params := core.Params{Gamma: wp.Gamma, Alpha: wp.Alpha, Samples: wp.Samples,
		Seed: wp.Seed, Analytic: wp.Analytic, OneSided: wp.OneSided}
	if err = params.Validate(); err == nil {
		params, err = params.ResolvePlan()
	}
	t.end(sp)
	if err != nil {
		return err
	}

	coord, globals := d.coords[0], d.globals[0]
	if mq != nil {
		sp = t.begin(req, root, "grn.infer")
		q, _, err = coord.InferGraphContext(ctx, mq, params)
		t.end(sp)
		if err != nil {
			return err
		}
	}

	sc := t.begin(req, root, "shard.scatter")
	numShards := coord.NumShards()
	if d.remote != nil {
		numShards = d.remote.NumShards()
	}
	runs := make([][]core.Answer, len(globals))
	for local, global := range globals {
		p := params
		if numShards > 1 {
			p.Seed = randgen.SeedFrom(params.Seed, uint64(global))
		}
		sp = t.begin(req, sc, "core.query_shard")
		runs[local], _, err = coord.QueryShardGraph(ctx, local, q, p)
		t.end(sp)
		if err != nil {
			return err
		}
	}
	t.end(sc)

	sp = t.begin(req, root, "shard.merge")
	answers := core.MergeAnswerRuns(runs)
	t.end(sp)

	sp = t.begin(req, root, "server.encode")
	_, err = json.Marshal(replyJSON(answers))
	t.end(sp)
	return err
}

// replyJSON maps answers onto the /query wire form, as the server does.
func replyJSON(answers []core.Answer) server.QueryResponse {
	out := server.QueryResponse{Answers: make([]server.AnswerJSON, 0, len(answers))}
	for _, a := range answers {
		aj := server.AnswerJSON{Source: a.Source, Prob: a.Prob, Genes: geneNames(a.Genes)}
		for _, e := range a.Edges {
			aj.Edges = append(aj.Edges, server.EdgeJSON{S: e.S, T: e.T, Prob: e.P})
		}
		out.Answers = append(out.Answers, aj)
	}
	return out
}

func replayWrite(t *tracer, w *wal.Writer, req int, m *gene.Matrix) error {
	root := t.begin(req, -1, "wal.append_sync")
	defer t.end(root)
	sp := t.begin(req, root, "wal.encode")
	payload, err := wal.EncodeAddMatrix(m)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin(req, root, "wal.append")
	err = w.Append(payload)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin(req, root, "wal.fsync")
	err = w.Sync()
	t.end(sp)
	return err
}

// meanDuration is the mean wall time of the spans named name, in ms.
func (t *tracer) meanDuration(name string) float64 {
	var total time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			total += s.End.Sub(s.Start)
			n++
		}
	}
	return ratio(ms(total), float64(n))
}
