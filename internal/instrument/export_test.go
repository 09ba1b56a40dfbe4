package instrument

import "gocured/internal/cil"

// FactIDs enters checks into one fact table, in order, and returns each
// check's fact ID, as the optimizer numbers the checks of one function.
func FactIDs(checks []*cil.Check) []int {
	t := newFactTable()
	ids := make([]int, len(checks))
	for i, c := range checks {
		t.add(c)
		ids[i] = t.id(c)
	}
	return ids
}
