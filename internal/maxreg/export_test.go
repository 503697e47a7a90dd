package maxreg

// TreeRegisters returns the switch registers reachable in b's tree (the
// root's and every materialized node's): what b holds in Resident.
func TreeRegisters(b *Bounded) uint64 {
	var count func(n *node) uint64
	count = func(n *node) uint64 {
		if n == nil {
			return 0
		}
		return 1 + count(n.left.Load()) + count(n.right.Load())
	}
	return count(b.root)
}

// Top returns u's top register.
func Top(u *Unbounded) *Bounded { return u.top }

// Installed returns u's installed epoch registers by epoch.
func Installed(u *Unbounded) map[int]BoundedMaxReg {
	eps := make(map[int]BoundedMaxReg)
	t := u.epochs.Load()
	if t == nil {
		return eps
	}
	for e := range t {
		if r := t[e].Load(); r != nil {
			eps[e] = *r
		}
	}
	return eps
}

// EpochTableBuilt reports whether u's epoch table has been built.
func EpochTableBuilt(u *Unbounded) bool { return u.epochs.Load() != nil }
