package algebra

// Helpers of the internal tests, exported to the external algebra_test
// package. The tests that compare production evaluation against the
// reference evaluator live there: internal/algebra/ref imports this package,
// so this package's internal tests cannot import it.
var (
	RangeSet       = rangeSet
	ChainSet       = chainSet
	Fld            = fld
	Parity         = parity
	EquiSelect     = equiSelect
	TCPipelineExpr = tcPipelineExpr
	TCExpr         = tcExpr
)
