package dsdb

import (
	"context"
	"time"

	"repro/dsdb/obs"
	"repro/dsdb/qcache"
	"repro/internal/db/executor"
	"repro/internal/db/sql"
	"repro/internal/db/value"
)

// ExplainColumn is the single output column of EXPLAIN result sets:
// one plan line per row, flowing through Rows / the wire protocol as
// ordinary string rows.
const ExplainColumn = "plan"

// explainQuery serves EXPLAIN and EXPLAIN ANALYZE: compile the
// statement, and either render the plan shape (EXPLAIN) or execute it
// under per-operator instrumentation and render the plan with actual
// rows/loops/time/buffer counters (EXPLAIN ANALYZE). The result is a
// materialized Rows — the same serving shape as a result-cache hit —
// so server, wire protocol and clients need no new frames.
//
// EXPLAIN never touches the result cache: the plan must reflect this
// compilation, and an ANALYZE execution's row copies would pollute the
// cache with results nobody asked for.
func (db *DB) explainQuery(ctx context.Context, tr Tracer, sp *obs.Span, mode sql.ExplainMode, query string) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Shared engine latch for compile and (for ANALYZE) the whole
	// execution, exactly like an ordinary query.
	release := db.eng.BeginRead()
	planStart := time.Now()
	c := executor.NewCtx(tr)
	cq, err := sql.CompileQuery(db.eng, c, query)
	sp.Add(obs.StagePlan, time.Since(planStart))
	if err != nil {
		release()
		sp.SetErr(err)
		sp.End()
		return nil, err
	}
	if mode == sql.ExplainPlan {
		lines := executor.ExplainLines(cq.Plan, false)
		release()
		return explainRows(ctx, sp, lines), nil
	}

	// EXPLAIN ANALYZE: wrap every operator, run the plan to
	// exhaustion, then render the tree with its counters. The plan was
	// compiled fresh above, so Instrument's in-place rewiring cannot
	// leak wrappers into any shared prepared statement.
	root := executor.Instrument(c, cq.Plan)
	c.Interrupt = interruptOf(ctx)
	c.SetSpan(sp)
	c.SetAnalyze(true)
	execStart := time.Now()
	err = drainPlan(root)
	sp.Add(obs.StageExec, time.Since(execStart))
	c.SetAnalyze(false)
	c.SetSpan(nil)
	c.Interrupt = nil
	release()
	if err != nil {
		sp.SetErr(err)
		sp.End()
		return nil, err
	}
	sp.SetTopOp(executor.TopOp(root))
	return explainRows(ctx, sp, executor.ExplainLines(root, true)), nil
}

// drainPlan opens a plan, pulls it to exhaustion and closes it,
// keeping the first error.
func drainPlan(root executor.Node) error {
	if err := root.Open(); err != nil {
		root.Close()
		return err
	}
	for {
		_, ok, err := root.Next()
		if err != nil {
			root.Close()
			return err
		}
		if !ok {
			break
		}
	}
	return root.Close()
}

// explainRows wraps rendered plan lines as a materialized result set
// (one "plan" column, one line per row). The Rows owns the span and
// ends it on close, like any other result set.
func explainRows(ctx context.Context, sp *obs.Span, lines []string) *Rows {
	rows := make([][]Value, len(lines))
	for i, l := range lines {
		rows[i] = []Value{value.NewStr(l)}
	}
	res := &qcache.Result{Columns: []string{ExplainColumn}, Rows: rows}
	return &Rows{ctx: ctx, cols: res.Columns, cres: res, span: sp}
}
