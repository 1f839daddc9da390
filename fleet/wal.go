package fleet

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"dronedse/fleet/journal"
	"dronedse/mission"
)

// The fleet write-ahead log: every accepted JobSpec is journaled and fsync'd
// BEFORE the server acknowledges it, and every terminal outcome is journaled
// BEFORE it is visible in the API. On restart the journal is replayed:
// terminal jobs come back with their digests and summaries; jobs with a
// SUBMIT but no terminal record are re-admitted and re-flown — and because a
// flight is a pure function of its JobSpec (seed-deterministic, co-tenant
// invariant), the re-run produces digests bit-identical to what the crashed
// run would have written. Recovery is replay, not state snapshotting.
//
// Record kinds (payloads are JSON, one record per job transition):
//
//	SUBMIT {id, spec}                    job accepted
//	DONE   {id, digests, summary | err}  job finished (or failed in flight)
//	CANCEL {id, reason}                  job killed by policy (deadline)
const (
	walSubmit byte = 1
	walDone   byte = 2
	walCancel byte = 3
)

// JournalFile is the journal's file name inside the -journal directory.
const JournalFile = "fleet.wal"

type submitRec struct {
	ID   uint64  `json:"id"`
	Spec JobSpec `json:"spec"`
}

type doneRec struct {
	ID      uint64      `json:"id"`
	Digests *Digests    `json:"digests,omitempty"`
	Summary *JobSummary `json:"summary,omitempty"`
	Err     string      `json:"err,omitempty"`
}

type cancelRec struct {
	ID     uint64 `json:"id"`
	Reason string `json:"reason"`
}

// JobSummary is the terminal-state summary a DONE record carries, so a
// completed job recovered from the journal still serves meaningful status
// without its (discarded) artifacts.
type JobSummary struct {
	FlightTimeS          float64 `json:"flight_time_s"`
	EnergyWh             float64 `json:"energy_wh"`
	ComputeWh            float64 `json:"compute_wh"`
	ComputeFlightCostMin float64 `json:"compute_flight_cost_min"`
	Completed            bool    `json:"completed"`
	FinalMode            string  `json:"final_mode"`
}

// RecoveredJob is one job's state reconstructed from the journal, in
// submission order.
type RecoveredJob struct {
	ID      uint64
	Spec    JobSpec
	Done    bool // has a terminal record (DONE or CANCEL)
	Err     string
	Digests *Digests
	Summary *JobSummary
}

// Recovery reports what journal replay found. Jobs without a terminal
// record are the re-admission set.
type Recovery struct {
	Jobs []RecoveredJob

	Completed, Failed, Readmitted int
	// TruncatedBytes is the torn/corrupt tail cut off the journal file
	// (non-zero after a crash mid-append — expected, not an error).
	TruncatedBytes int64
	// DupTerminal counts redundant DONE/CANCEL records for already-terminal
	// jobs (a crash between the DONE fsync and the in-memory finalize makes
	// the re-run journal a second DONE); OrphanTerminal counts terminal
	// records whose SUBMIT was lost to a torn tail. Both are tolerated.
	DupTerminal, OrphanTerminal int

	maxID uint64 // highest journaled job ID; the server resumes past it
}

// replayJournal folds raw journal records into per-job state. Malformed
// payloads (impossible under this writer, conceivable under disk
// corruption that still passes CRC) fail recovery loudly rather than
// silently dropping jobs.
func replayJournal(recs []journal.Record) (*Recovery, uint64, error) {
	rec := &Recovery{}
	byID := map[uint64]int{}
	var maxID uint64
	terminal := func(id uint64, apply func(j *RecoveredJob)) {
		idx, ok := byID[id]
		if !ok {
			rec.OrphanTerminal++
			return
		}
		if rec.Jobs[idx].Done {
			rec.DupTerminal++
			return
		}
		apply(&rec.Jobs[idx])
		rec.Jobs[idx].Done = true
	}
	for i, r := range recs {
		switch r.Kind {
		case walSubmit:
			// Older writers said "hover":true instead of naming the hover
			// workload; translate it so those jobs re-fly the same flight.
			var sr struct {
				ID   uint64 `json:"id"`
				Spec struct {
					JobSpec
					Hover bool `json:"hover"`
				} `json:"spec"`
			}
			if err := json.Unmarshal(r.Payload, &sr); err != nil {
				return nil, 0, fmt.Errorf("fleet: journal record %d: bad SUBMIT: %w", i, err)
			}
			if sr.Spec.Hover {
				sr.Spec.Workload = &mission.WireSpec{KindName: "hover"}
			}
			if _, dup := byID[sr.ID]; dup {
				continue // duplicate SUBMIT: first wins
			}
			byID[sr.ID] = len(rec.Jobs)
			rec.Jobs = append(rec.Jobs, RecoveredJob{ID: sr.ID, Spec: sr.Spec.JobSpec})
			if sr.ID > maxID {
				maxID = sr.ID
			}
		case walDone:
			var dr doneRec
			if err := json.Unmarshal(r.Payload, &dr); err != nil {
				return nil, 0, fmt.Errorf("fleet: journal record %d: bad DONE: %w", i, err)
			}
			terminal(dr.ID, func(j *RecoveredJob) {
				j.Digests, j.Summary, j.Err = dr.Digests, dr.Summary, dr.Err
			})
		case walCancel:
			var cr cancelRec
			if err := json.Unmarshal(r.Payload, &cr); err != nil {
				return nil, 0, fmt.Errorf("fleet: journal record %d: bad CANCEL: %w", i, err)
			}
			terminal(cr.ID, func(j *RecoveredJob) { j.Err = cr.Reason })
		default:
			return nil, 0, fmt.Errorf("fleet: journal record %d: unknown kind %d", i, r.Kind)
		}
	}
	for _, j := range rec.Jobs {
		switch {
		case !j.Done:
			rec.Readmitted++
		case j.Err != "":
			rec.Failed++
		default:
			rec.Completed++
		}
	}
	return rec, maxID, nil
}

// openJournal opens dir/fleet.wal, replays it, and returns the log plus the
// recovered state.
func openJournal(dir string) (*journal.Log, *Recovery, error) {
	jl, recs, trunc, err := journal.Open(filepath.Join(dir, JournalFile))
	if err != nil {
		return nil, nil, err
	}
	rec, maxID, err := replayJournal(recs)
	if err != nil {
		jl.Close()
		return nil, nil, err
	}
	rec.TruncatedBytes = trunc
	rec.maxID = maxID
	return jl, rec, nil
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		// All wal record types marshal by construction.
		panic(fmt.Sprintf("fleet: wal encode: %v", err))
	}
	return data
}

// appendSubmits journals a batch of accepted jobs under one fsync.
func appendSubmits(jl *journal.Log, jobs []*job) error {
	recs := make([]journal.Record, len(jobs))
	for i, j := range jobs {
		recs[i] = journal.Record{Kind: walSubmit, Payload: mustJSON(submitRec{ID: j.id, Spec: j.spec})}
	}
	return jl.AppendBatch(recs)
}

// appendDone journals a job's terminal outcome (completion or in-flight
// failure).
func appendDone(jl *journal.Log, id uint64, dig *Digests, sum *JobSummary, err error) error {
	dr := doneRec{ID: id, Digests: dig, Summary: sum}
	if err != nil {
		dr.Err = err.Error()
	}
	return jl.Append(walDone, mustJSON(dr))
}

// appendCancel journals a policy kill (wall-clock deadline).
func appendCancel(jl *journal.Log, id uint64, reason string) error {
	return jl.Append(walCancel, mustJSON(cancelRec{ID: id, Reason: reason}))
}
