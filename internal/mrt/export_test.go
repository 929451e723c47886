package mrt

import "mcfi/internal/tables"

// RepublishByTransaction gives r fresh tables on the Go heap and
// publishes its current policy onto them with a full update
// transaction, as a dlopen that cannot take the delta path does, with
// the publication counters reset: what New's tables would hold had it
// published with a transaction.
func RepublishByTransaction(r *Runtime) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	code, branches := r.Tables.CodeLimit(), r.Tables.NumBranches()
	r.Tables = tables.New(make([]uint32, code/4+branches), code, nil)
	r.Tables.SetCovered(int(r.codeEnd))
	r.deltaPublishes, r.fullPublishes = 0, 0
	return r.publishCFG(nil)
}
