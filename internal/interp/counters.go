package interp

import "gocured/internal/cil"

// KindCounts tallies executed checks per check kind. It is a fixed array
// indexed by cil.CheckKind so the per-check hot path is one add with no
// map hash.
type KindCounts [cil.NumCheckKinds]uint64
