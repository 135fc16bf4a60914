package randgen

// SetState overwrites the xoshiro256** state, so tests can start from a
// state whose next output forces a particular branch.
func (r *Rand) SetState(s [4]uint64) { r.s = s }
