package query

import (
	"sort"

	"algrec/internal/algebra"
)

// Relations reports which database relations Execute may read for this plan.
// When all is false, names is the sorted, duplicate-free list of external
// relation names the plan can touch; loading exactly those from a backing
// store yields the same Outcome as loading the whole database. When all is
// true the plan's Outcome depends on the entire database (names is nil):
// datalog execution grounds only the relations the program names, but it
// renders every database relation's facts beside the program's predicates,
// so no sound subset exists short of the full database.
//
// The serving layer uses this to materialize only the needed relations from
// a disk-backed database before Execute.
func (p *Plan) Relations() (names []string, all bool) {
	switch p.Language {
	case LangAlgebra, LangIFPAlgebra:
		return algebra.FreeRels(p.Expr), false
	case LangAlgebraEq:
		set := map[string]bool{}
		if p.Script.Program != nil {
			for _, n := range p.Script.Program.BaseRels() {
				set[n] = true
			}
		}
		for _, q := range p.Script.Queries {
			for _, n := range algebra.FreeRels(q.Expr) {
				set[n] = true
			}
		}
		// Names defined by the script itself never come from the database.
		if p.Script.Program != nil {
			for _, d := range p.Script.Program.Defs {
				delete(set, d.Name)
			}
		}
		// Inline rel statements shadow the external database.
		for n := range p.Script.DB {
			delete(set, n)
		}
		names = make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		return names, false
	default: // LangDatalog
		return nil, true
	}
}
