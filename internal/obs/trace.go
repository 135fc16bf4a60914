package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Stage identifies one pipeline stage of the IM-GRN_Processing algorithm
// (Figure 4). The stages map onto the paper's filtering/refinement split:
// everything up to StageMarkov is filtering (index traversal plus the
// pruning lemmas), StageMonteCarlo is the exact verification the filters
// exist to avoid, and StageTopK is post-processing.
type Stage uint8

const (
	// StageInfer is ad-hoc query-GRN inference from the query matrix
	// (Fig. 4 line 1, Definition 2/3).
	StageInfer Stage = iota
	// StageTraverse is the pairwise depth-first descent of the R*-tree
	// index (Fig. 4 lines 2–27), including the bit-vector signature,
	// gene-ID-range and Lemma-6 structural filters applied per node pair.
	StageTraverse
	// StageFilter is the reduction of surviving candidate (gene, gene)
	// pairs to distinct candidate matrices.
	StageFilter
	// StageMarkov is Lemma-5 graph existence pruning: the Markov/pivot
	// upper-bound product test applied per candidate matrix. Its duration
	// is the aggregate across candidates (summed CPU time, not wall
	// clock, when refinement runs on multiple workers).
	StageMarkov
	// StageMonteCarlo is exact candidate verification: per-edge Monte
	// Carlo (or analytic) probability estimation of Definition 4.
	// Aggregate duration, like StageMarkov.
	StageMonteCarlo
	// StageTopK is ranking and truncation of the answer set.
	StageTopK
	// StageInferKernel is the portion of StageInfer spent inside the
	// batched Monte Carlo inference kernel (shared permutation batches plus
	// blocked inner products; DESIGN.md §9). It nests within StageInfer —
	// its duration is a subset, not an addition — and is absent when the
	// kernel is disabled or the analytic estimator is in use.
	StageInferKernel
	// StageScatter is the sharded fan-out of one query across the index
	// partitions (DESIGN.md §10): its duration is the wall-clock of the
	// whole scatter wave, In is the number of shards queried and Out the
	// total answers they produced. The per-shard pipeline stages (traverse,
	// filter, markov_prune, monte_carlo) nest within it — one span per
	// shard, recorded into the same trace.
	StageScatter
	// StageMerge is the cross-shard answer merge: either the ordered
	// concatenation of per-shard answer sets or the bounded top-k merge
	// with Markov-bound early termination. In counts answers entering the
	// merge, Out the answers surviving it.
	StageMerge
	// StagePlan is query-plan construction: the cost-model evaluation
	// that fixes the Monte Carlo sample count and the prune-stage set
	// before the pipeline runs. In is the number of queries the planner's
	// cost model had observed, Out the chosen sample count R.
	StagePlan
	// StageBatch is one multi-query batch execution (DESIGN.md §14): its
	// duration is the wall-clock of the whole batch, In the number of
	// queries submitted and Out the number that completed without error.
	// The per-item pipeline stages are recorded into each item's own
	// tracer; this span lives on the batch-level tracer.
	StageBatch

	numStages
)

// stageNames are the wire/metric names of the stages; they appear as the
// "stage" label on metrics and in JSON trace summaries.
var stageNames = [numStages]string{
	"infer", "traverse", "filter", "markov_prune", "monte_carlo", "topk",
	"infer_kernel", "scatter", "merge", "plan", "batch",
}

// String returns the stage's metric/wire name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// StageNames lists the wire names of all stages in pipeline order.
func StageNames() []string {
	out := make([]string, numStages)
	copy(out, stageNames[:])
	return out
}

// Span is one recorded stage of one query.
type Span struct {
	// Stage identifies the pipeline stage.
	Stage Stage
	// Begin is the span's start offset from the start of the trace.
	Begin time.Duration
	// Dur is the stage duration. For StageMarkov and StageMonteCarlo it
	// is the aggregate across candidates (see the Stage docs).
	Dur time.Duration
	// In and Out are the candidate counts flowing into and out of the
	// stage; Out/In is the stage's pruning power. Which objects are
	// counted depends on the stage (node pairs, candidate pairs,
	// candidate matrices, answers) — see the DESIGN.md metric catalog.
	In, Out int
}

// Tracer collects the stage spans of a single query. The zero value is
// not used directly: NewTracer pins the trace start time. A nil *Tracer
// is the disabled tracer — every method is nil-safe and free of
// allocation, so instrumented code calls unconditionally.
//
// Record is safe for concurrent use, though the query pipeline records
// stages sequentially from the orchestrating goroutine.
type Tracer struct {
	start time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a trace at the current time.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now(), spans: make([]Span, 0, int(numStages))}
}

// Record appends a span for stage, started at begin with duration d and
// the given in/out candidate counts. No-op on a nil tracer.
func (t *Tracer) Record(stage Stage, begin time.Time, d time.Duration, in, out int) {
	if t == nil {
		return
	}
	offset := begin.Sub(t.start)
	if offset < 0 {
		offset = 0
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Stage: stage, Begin: offset, Dur: d, In: in, Out: out})
	t.mu.Unlock()
}

// Enabled reports whether the tracer records (false on nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Spans returns the recorded spans in recording order (nil on a nil or
// empty tracer). The returned slice is a copy.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return nil
	}
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Mark is an in-progress span handle returned by Start. The zero Mark
// (from a nil tracer) is valid and its End is a no-op.
type Mark struct {
	t     *Tracer
	stage Stage
	begin time.Time
}

// Start begins a span for stage. On a nil tracer it returns the zero
// Mark without reading the clock.
func (t *Tracer) Start(stage Stage) Mark {
	if t == nil {
		return Mark{}
	}
	return Mark{t: t, stage: stage, begin: time.Now()}
}

// End completes the span with the given candidate counts.
func (m Mark) End(in, out int) {
	if m.t == nil {
		return
	}
	m.t.Record(m.stage, m.begin, time.Since(m.begin), in, out)
}

// Summary renders the trace as one human-readable line for the
// slow-query log: stage=dur(in→out) segments in recording order.
// Empty on a nil tracer.
func (t *Tracer) Summary() string {
	spans := t.Spans()
	if len(spans) == 0 {
		return ""
	}
	var b strings.Builder
	for i, s := range spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s(%d→%d)", s.Stage, s.Dur.Round(time.Microsecond), s.In, s.Out)
	}
	return b.String()
}
