package remotedb

import (
	"context"

	"repro/internal/relation"
)

// This file is the engine half of streamed (framed wire) execution: a SELECT
// whose evaluation is a per-tuple pipeline — one table, per-tuple WHERE
// conditions, plain projection — does not need to materialize its result
// before the first tuple can ship. ExecuteSQLStream recognizes such
// statements and returns a pull-based ScanStream over an immutable snapshot
// of the table, so the framed server can emit the first response frame after
// frameTuples tuples of work instead of after the whole scan. Everything
// else (joins, aggregation, DISTINCT, ORDER BY) falls back to the
// materializing Execute path and is framed post hoc.
//
// Because a ScanStream's emission order is a deterministic function of its
// snapshot (rows in base order, filtered by the same conditions), it is the
// *resumable* execution path: ResumeSQLStream rebuilds the same scan, pins
// it to the original snapshot length, and fast-forwards past the tuples a
// broken connection already delivered (resume.go).

// ScanStream is an incrementally produced SELECT result. It is single
// consumer and must not be shared between goroutines.
type ScanStream struct {
	name   string
	schema *relation.Schema
	rows   []relation.Tuple // immutable snapshot of the base extension
	conds  []relation.Cond
	proj   []int // projection column positions; nil = identity (no copy)
	limit  int   // max tuples to emit; -1 = unbounded

	// token pins the snapshot for mid-stream resume (resume.go).
	token ResumeToken
	// skip is how many matching tuples to fast-forward past before emitting
	// (a resumed stream's already-delivered prefix). Skipped tuples count
	// against limit and ops exactly as if they had been emitted, so a
	// resumed delivery is the tail of the uninterrupted one.
	skip int64

	pos     int
	emitted int
	ops     int64
}

// Schema is the result schema (after projection).
func (s *ScanStream) Schema() *relation.Schema { return s.schema }

// Name is the result relation name.
func (s *ScanStream) Name() string { return s.name }

// Ops is the number of tuple operations performed so far; it reaches the
// cost-model total once the scan is exhausted.
func (s *ScanStream) Ops() int64 { return s.ops }

// ResumeToken identifies the snapshot this scan reads, for the header frame
// of a resumable stream.
func (s *ScanStream) ResumeToken() ResumeToken { return s.token }

// Next produces the next result tuple.
func (s *ScanStream) Next() (relation.Tuple, bool) {
	for s.pos < len(s.rows) {
		if s.limit >= 0 && s.emitted >= s.limit {
			return nil, false
		}
		t := s.rows[s.pos]
		s.pos++
		s.ops++
		if !relation.EvalAll(s.conds, t) {
			continue
		}
		s.emitted++
		s.ops++ // emit counts one op, matching the materialized projection cost
		if s.skip > 0 {
			// Fast-forward a resumed scan: the tuple was already delivered by
			// the broken stream, so it is accounted but not re-emitted.
			s.skip--
			continue
		}
		if s.proj == nil {
			return t, true
		}
		out := make(relation.Tuple, len(s.proj))
		for i, c := range s.proj {
			out[i] = t[c]
		}
		return out, true
	}
	return nil, false
}

// EngineStream is a pull-based SELECT result: tuples are produced
// incrementally, so the framed server can ship the first frame as soon as
// the stream's blocking prefix (if any) completes. ScanStream (resumable
// single-table pipelines) and PlanStream (optimized join/aggregate
// pipelines) both implement it.
type EngineStream interface {
	Next() (relation.Tuple, bool)
	Schema() *relation.Schema
	Name() string
	Ops() int64
}

// ExecuteSQLPipeline returns a pull-based stream for any SELECT the engine
// can execute incrementally: the resumable single-table ScanStream when the
// statement qualifies, otherwise a cost-based PlanStream (optimizer on only
// — with the optimizer off every non-trivial SELECT deliberately falls back
// to the materializing executor, the E16 control arm). ok=false sends the
// caller to the materializing Execute path, which also owns error
// reporting: parse and resolution errors surface there, not here.
func (e *Engine) ExecuteSQLPipeline(src string) (EngineStream, bool) {
	return e.ExecuteSQLPipelineCtx(context.Background(), src)
}

// ExecuteSQLPipelineCtx is ExecuteSQLPipeline with a context: plan-cache
// and optimize spans started under it stitch into the caller's trace (the
// framed server passes a context carrying the wire-adopted trace ID).
func (e *Engine) ExecuteSQLPipelineCtx(ctx context.Context, src string) (EngineStream, bool) {
	if sc, ok := e.ExecuteSQLStream(src); ok {
		return sc, true
	}
	if !e.OptimizerEnabled() {
		return nil, false
	}
	st, err := ParseSQL(src)
	if err != nil || st.Select == nil || st.Explain {
		return nil, false
	}
	ps, err := e.openPlan(ctx, st.Select, false)
	if err != nil {
		return nil, false
	}
	return ps, true
}

// ExecuteSQLStream returns a ScanStream when src parses to a streamable
// statement, and ok=false otherwise — including on parse and resolution
// errors, so the caller falls back to Execute and reports the error through
// the ordinary path. The snapshot is taken under the engine lock; the
// relation representation is append-only, so the captured prefix stays
// consistent while concurrent inserts land.
func (e *Engine) ExecuteSQLStream(src string) (*ScanStream, bool) {
	return e.buildScanStream(src, nil)
}

// ResumeSQLStream rebuilds the scan pinned by a resume token and
// fast-forwards past skip already-delivered tuples. It returns
// resumed=false — and the caller falls back to a fresh ExecuteSQLStream —
// when the token does not belong to src, the table has mutated since the
// token was minted (version mismatch: replacement, append, or a crash
// recovery), or the pinned snapshot exceeds the current extension
// (impossible under append-only; defends against forged tokens).
func (e *Engine) ResumeSQLStream(src string, tok ResumeToken, skip int64) (*ScanStream, bool) {
	if skip < 0 || tok.StmtHash != StatementHash(src) {
		return nil, false
	}
	sc, ok := e.buildScanStream(src, &tok)
	if !ok {
		return nil, false
	}
	sc.skip = skip
	return sc, true
}

// buildScanStream compiles src into a pull-based scan. With a non-nil pin,
// the scan is bound to the pinned snapshot (same table, same version, first
// SnapLen rows) and ok=false reports the snapshot is gone.
func (e *Engine) buildScanStream(src string, pin *ResumeToken) (*ScanStream, bool) {
	st, err := ParseSQL(src)
	if err != nil || st.Select == nil || st.Explain {
		return nil, false
	}
	sel := st.Select
	if len(sel.From) != 1 || sel.Distinct ||
		len(sel.GroupBy) > 0 || len(sel.OrderBy) > 0 {
		return nil, false
	}
	for _, it := range sel.Items {
		if it.IsAgg {
			return nil, false
		}
	}

	e.mu.RLock()
	defer e.mu.RUnlock()
	table := sel.From[0].Table
	base, ok := e.tables[table]
	if !ok {
		return nil, false
	}
	rows := base.Tuples()
	version := e.versions[table]
	if pin != nil {
		if pin.Table != table || pin.Version != version ||
			pin.SnapLen < 0 || pin.SnapLen > int64(len(rows)) {
			return nil, false
		}
		rows = rows[:pin.SnapLen]
	}
	sch := base.Schema()
	alias := sel.From[0].Alias

	resolve := func(c ColRef) (int, bool) {
		if c.Qualifier != "" && c.Qualifier != alias {
			return 0, false
		}
		i := sch.ColIndex(c.Column)
		return i, i >= 0
	}

	var conds []relation.Cond
	for _, c := range sel.Where {
		lc, ok := resolve(c.Left)
		if !ok {
			return nil, false
		}
		if c.RightIsCol {
			rc, ok := resolve(c.RightCol)
			if !ok {
				return nil, false
			}
			conds = append(conds, relation.ColCol(lc, c.Op, rc))
		} else {
			conds = append(conds, relation.ColConst(lc, c.Op, c.RightVal))
		}
	}

	var proj []int
	var attrs []relation.Attr
	if len(sel.Items) == 1 && sel.Items[0].Star {
		attrs = sch.Attrs() // identity: ship base tuples without copying
	} else {
		for _, it := range sel.Items {
			if it.Star {
				return nil, false
			}
			p, ok := resolve(it.Col)
			if !ok {
				return nil, false
			}
			proj = append(proj, p)
			attrs = append(attrs, sch.Attr(p))
		}
	}

	return &ScanStream{
		name:   "result",
		schema: relation.NewSchema(attrs...),
		rows:   rows,
		conds:  conds,
		proj:   proj,
		limit:  sel.Limit,
		token: ResumeToken{
			StmtHash: StatementHash(src),
			Table:    table,
			Version:  version,
			SnapLen:  int64(len(rows)),
		},
	}, true
}
