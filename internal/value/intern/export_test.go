package intern

// SetLimits lowers in's ID and child-arena limits (normally
// math.MaxUint32) so tests can reach exhaustion without interning 2^32
// values.
func SetLimits(in *Interner, ids, children uint32) {
	in.mu.Lock()
	in.maxIDs, in.maxChildren = ids, children
	in.mu.Unlock()
}

// ChildLen returns the number of child-arena slots in has handed out,
// skipped chunk tails included.
func ChildLen(in *Interner) uint32 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.childNext
}
