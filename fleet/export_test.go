package fleet

import "dronedse/groundstation"

// Journal record kinds, exported so chaos tests can hand-craft wal files
// (duplicate terminals, orphans) that the writer itself would never
// produce.
const (
	WalSubmitKind = walSubmit
	WalDoneKind   = walDone
	WalCancelKind = walCancel
)

// JobHub returns a job's telemetry hub, so tests can watch its
// reachability.
func (s *Server) JobHub(id uint64) *groundstation.Hub {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id].hub
}
