package query

import (
	"errors"
	"fmt"

	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/datalog/ground"
	"algrec/internal/semantics"
	"algrec/internal/translate"
	"algrec/internal/value"
)

// Options are the per-request knobs of one Execute call. The zero value
// applies the engines' default budgets, no cancellation, and the CLIs'
// default stable-search bound.
type Options struct {
	// Budget caps the algebra-side evaluation (IFP iterations, set sizes,
	// call depth) and carries the Interrupt cancellation channel polled
	// between fixpoint rounds.
	Budget algebra.Budget
	// Ground caps grounding for the deductive pipelines (datalog, and the
	// translation-based wellfounded/stable readings of algebra=); its
	// Interrupt channel also cancels the stable-model search.
	Ground ground.Budget
	// MaxUndef bounds the residual size of a stable-model search
	// (0 = the CLIs' default of 24).
	MaxUndef int
}

// DefaultMaxUndef is the stable-search residual bound used when
// Options.MaxUndef is zero — the same default as the -max-undef CLI flag.
const DefaultMaxUndef = 24

// NamedSet is one defined constant's content in an Outcome: the certain
// elements and, under three-valued semantics, the elements whose membership
// is undefined.
type NamedSet struct {
	Name  string
	Set   value.Set
	Undef value.Set
}

// QueryAnswer is the answer to one `query` statement of an algebra= script.
type QueryAnswer struct {
	Src   string
	Set   value.Set
	Undef value.Set
}

// PredFacts is one predicate's content in a datalog Outcome, as fact keys
// ("tc(a, b)") in the engines' deterministic order.
type PredFacts struct {
	Pred  string
	True  []string
	Undef []string
}

// DatalogModel is one interpretation of a datalog program over a database:
// the facts of every predicate occurring in the program or holding a
// database fact, sorted by predicate. A database relation the program does
// not name is rendered straight from the database, as true facts.
type DatalogModel struct {
	Preds []PredFacts
}

// Outcome is the structured result of one Execute call. Which fields are
// populated depends on the plan's language and semantics:
//
//   - expression languages: Value (HasValue true);
//   - algebra= under valid/inflationary/wellfounded: Defs, Queries,
//     WellDefined;
//   - algebra= under stable: Models (one per stable reading);
//   - datalog under non-stable semantics: Datalog, IDB;
//   - datalog under stable: DatalogModels, IDB.
type Outcome struct {
	Language  Language
	Semantics Semantics
	// WellDefined reports whether every defined set is total (algebra=
	// under the valid semantics; true elsewhere).
	WellDefined bool
	// HasValue and Value carry the single result set of an expression.
	HasValue bool
	Value    value.Set
	// Defs lists the zero-parameter defined constants in program order.
	Defs []NamedSet
	// Queries answers the script's query statements in order. Under the
	// wellfounded reading the answers are evaluated over the certain
	// (lower-bound) sets, with no undefined part reported.
	Queries []QueryAnswer
	// Models are the stable readings of an algebra= program.
	Models [][]NamedSet
	// Datalog is the interpretation of a datalog program; DatalogModels
	// are its stable models.
	Datalog       *DatalogModel
	DatalogModels []DatalogModel
	// IDB is the sorted list of derived predicates — the default set a
	// renderer prints.
	IDB []string
}

// Execute runs a compiled plan against a database under the given options.
// db may be nil (an empty database); the plan is never mutated, so one plan
// can execute concurrently against many databases. For algebra= scripts the
// script's own rel statements overlay the database on name collisions.
func Execute(plan *Plan, db algebra.DB, opts Options) (*Outcome, error) {
	if opts.MaxUndef <= 0 {
		opts.MaxUndef = DefaultMaxUndef
	}
	out := &Outcome{Language: plan.Language, Semantics: plan.Semantics, WellDefined: true}
	switch plan.Language {
	case LangAlgebra, LangIFPAlgebra:
		ev := algebra.NewEvaluator(db, opts.Budget)
		v, err := ev.Eval(plan.Expr)
		if err != nil {
			return nil, err
		}
		out.HasValue = true
		out.Value = v
		return out, nil
	case LangAlgebraEq:
		return executeScript(plan, db, opts, out)
	case LangDatalog:
		return executeDatalog(plan, db, opts, out)
	default:
		return nil, fmt.Errorf("query: unknown language %q", plan.Language)
	}
}

// executeScript evaluates an algebra= script under the plan's semantics.
func executeScript(plan *Plan, db algebra.DB, opts Options, out *Outcome) (*Outcome, error) {
	script := plan.Script
	merged := algebra.DB{}
	for k, v := range db {
		merged[k] = v
	}
	for k, v := range script.DB {
		merged[k] = v
	}
	switch plan.Semantics {
	case SemValid:
		res, err := core.EvalValid(script.Program, merged, opts.Budget)
		if err != nil {
			return nil, err
		}
		out.WellDefined = res.WellDefined()
		for _, d := range script.Program.Defs {
			if len(d.Params) > 0 {
				continue
			}
			out.Defs = append(out.Defs, NamedSet{Name: d.Name, Set: res.Set(d.Name), Undef: res.UndefElems(d.Name)})
		}
		for _, q := range script.Queries {
			lo, err := res.QueryLower(q.Expr)
			if err != nil {
				return nil, err
			}
			up, err := res.QueryUpper(q.Expr)
			if err != nil {
				return nil, err
			}
			out.Queries = append(out.Queries, QueryAnswer{Src: q.Src, Set: lo, Undef: up.Diff(lo)})
		}
		return out, nil
	case SemInflationary:
		sets, err := core.EvalInflationary(script.Program, merged, opts.Budget)
		if err != nil {
			return nil, err
		}
		for _, d := range script.Program.Defs {
			if len(d.Params) > 0 {
				continue
			}
			out.Defs = append(out.Defs, NamedSet{Name: d.Name, Set: sets[d.Name]})
		}
		for _, q := range script.Queries {
			qdb := merged.Clone()
			for name, s := range sets {
				qdb[name] = s
			}
			got, err := algebra.NewEvaluator(qdb, opts.Budget).Eval(q.Expr)
			if err != nil {
				return nil, err
			}
			out.Queries = append(out.Queries, QueryAnswer{Src: q.Src, Set: got})
		}
		return out, nil
	case SemWellFounded:
		lower, upper, err := translate.WellFoundedSetsBudget(script.Program, merged, opts.Ground)
		if err != nil {
			return nil, err
		}
		for _, d := range script.Program.Defs {
			if len(d.Params) > 0 {
				continue
			}
			und := upper[d.Name].Diff(lower[d.Name])
			if !und.IsEmpty() {
				out.WellDefined = false
			}
			out.Defs = append(out.Defs, NamedSet{Name: d.Name, Set: lower[d.Name], Undef: und})
		}
		for _, q := range script.Queries {
			qdb := merged.Clone()
			for name, s := range lower {
				qdb[name] = s
			}
			got, err := algebra.NewEvaluator(qdb, opts.Budget).Eval(q.Expr)
			if err != nil {
				return nil, err
			}
			out.Queries = append(out.Queries, QueryAnswer{Src: q.Src, Set: got})
		}
		return out, nil
	case SemStable:
		models, err := translate.StableSetsBudget(script.Program, merged, opts.MaxUndef, opts.Ground)
		if err != nil {
			return nil, err
		}
		for _, m := range models {
			var sets []NamedSet
			for _, d := range script.Program.Defs {
				if len(d.Params) > 0 {
					continue
				}
				sets = append(sets, NamedSet{Name: d.Name, Set: m[d.Name]})
			}
			out.Models = append(out.Models, sets)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: %s under %s", ErrUnsupportedSemantics, plan.Language, plan.Semantics)
	}
}

// executeDatalog evaluates a datalog program under the plan's semantics.
// Only the database relations the program names (as a rule head or body
// predicate) are appended as facts (DBFacts): no rule reads the others, so
// grounding them would only build atoms nothing derives from. They are still
// rendered, straight from the database, and their facts still count against
// the grounding budget as if they had been grounded.
func executeDatalog(plan *Plan, db algebra.DB, opts Options, out *Outcome) (*Outcome, error) {
	prog := plan.Program
	named, unnamed := translate.SplitDB(prog, db)
	if len(named) > 0 {
		merged := &datalog.Program{Rules: append([]datalog.Rule{}, prog.Rules...)}
		merged.AddFacts(DBFacts(named)...)
		prog = merged
	}
	unread := unreadFacts(unnamed)
	spent := 0
	for _, pf := range unread {
		spent += len(pf.True)
	}
	gb, err := opts.Ground.Spend(spent)
	if err != nil {
		return nil, err
	}
	out.IDB = prog.IDB()
	if plan.Semantics == SemStable {
		g, err := ground.Ground(prog, gb)
		if err != nil {
			return nil, ground.Refund(err, spent)
		}
		e := semantics.NewEngine(g)
		e.SetInterrupt(opts.Ground.Interrupt)
		models, err := e.StableModels(opts.MaxUndef)
		if err != nil {
			return nil, err
		}
		for _, m := range models {
			out.DatalogModels = append(out.DatalogModels, snapshotInterp(prog, m, unread))
		}
		return out, nil
	}
	sem, err := mapDatalogSemantics(plan.Semantics)
	if err != nil {
		return nil, err
	}
	in, err := semantics.Eval(prog, sem, gb)
	if err != nil {
		return nil, ground.Refund(err, spent)
	}
	m := snapshotInterp(prog, in, unread)
	out.Datalog = &m
	for _, pf := range m.Preds {
		if len(pf.Undef) > 0 {
			out.WellDefined = false
		}
	}
	return out, nil
}

// DBFacts converts a database to datalog facts in the relational idiom:
// each tuple element becomes one fact with the tuple's components as
// arguments (an n-ary relation), each scalar element a unary fact. This
// differs from translate.DBFacts, whose unary complex-object encoding
// serves the paper's simulation theorems — a user writing `edge(X, Y)`
// against a database relation of pairs expects the relational reading.
// It is exported because the incremental engine (internal/ivm) and the
// server's mutation surface must agree with Execute on this mapping.
func DBFacts(db algebra.DB) []datalog.Fact {
	var out []datalog.Fact
	for name, s := range db {
		for _, e := range s.Elems() {
			if t, ok := e.(value.Tuple); ok {
				out = append(out, datalog.Fact{Pred: name, Args: t.Elems()})
				continue
			}
			out = append(out, datalog.Fact{Pred: name, Args: []value.Value{e}})
		}
	}
	datalog.SortFacts(out)
	return out
}

// unreadFacts renders the relations Execute does not ground: per relation,
// its distinct fact keys in the order the engines render a predicate's true
// facts, sorted by relation name. Empty relations have no facts and are left
// out, as a predicate with no atoms is.
func unreadFacts(db algebra.DB) []PredFacts {
	var out []PredFacts
	for _, f := range DBFacts(db) {
		if n := len(out); n == 0 || out[n-1].Pred != f.Pred {
			out = append(out, PredFacts{Pred: f.Pred})
		}
		pf := &out[len(out)-1]
		// A 1-tuple and its scalar component are the same fact.
		if key := f.Key(); len(pf.True) == 0 || pf.True[len(pf.True)-1] != key {
			pf.True = append(pf.True, key)
		}
	}
	return out
}

// snapshotInterp converts an interpretation into the Outcome's wire form:
// per-predicate fact keys, every predicate of the program plus the unread
// relations' facts, sorted by predicate.
func snapshotInterp(p *datalog.Program, in *semantics.Interp, unread []PredFacts) DatalogModel {
	var m DatalogModel
	for _, pred := range p.Preds() {
		for len(unread) > 0 && unread[0].Pred < pred {
			m.Preds = append(m.Preds, unread[0])
			unread = unread[1:]
		}
		pf := PredFacts{Pred: pred}
		pf.True = append(pf.True, in.FactKeysWith(pred, semantics.True)...)
		pf.Undef = append(pf.Undef, in.FactKeysWith(pred, semantics.Undef)...)
		m.Preds = append(m.Preds, pf)
	}
	m.Preds = append(m.Preds, unread...)
	return m
}

// ErrorCode classifies an error from Compile or Execute into the structured
// outcome codes of the serving layer:
//
//	"canceled"              the Interrupt channel fired (the server refines
//	                        this to "timeout" when a deadline caused it)
//	"budget-exceeded"       an evaluation or grounding budget was exhausted,
//	                        or a stable search exceeded its residual bound
//	"unsupported-semantics" the (language, semantics) pair has no reading
//	"parse-error"           Compile rejected the query text
//	"eval-error"            anything else (unknown relation, type error, ...)
func ErrorCode(err error, compile bool) string {
	var be *ground.BudgetError
	switch {
	case errors.Is(err, algebra.ErrCanceled), errors.Is(err, ground.ErrCanceled), errors.Is(err, semantics.ErrCanceled):
		return "canceled"
	case errors.Is(err, algebra.ErrBudget), errors.As(err, &be), errors.Is(err, semantics.ErrTooManyUndef):
		return "budget-exceeded"
	case errors.Is(err, ErrUnsupportedSemantics):
		return "unsupported-semantics"
	case compile:
		return "parse-error"
	default:
		return "eval-error"
	}
}
