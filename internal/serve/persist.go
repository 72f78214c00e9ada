package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"rta/internal/admission"
	"rta/internal/analysis"
	"rta/internal/model"
	"rta/internal/store"
)

// The durability glue between the server and the store.
//
// Ordering: every tenant id owns one ordered queue in the store. A
// decision commits in the session and enqueues its operation under the
// tenant's logMu, so the queue order is the commit order and replay
// reproduces the committed state; creates, drops and evictions enqueue
// inside the critical section that edits the tenant map, so a drop and a
// re-create of the same id are queued in map order. The handler then
// releases the lock and flushes the queue through its own operation
// before the HTTP acknowledgment: an operation that committed but
// crashed before its flush was never acknowledged, so recovering to the
// written prefix is consistent with everything any client was told.
//
// Degraded mode: a store error never fails the request — the in-memory
// session is the source of truth and keeps serving. The failed entries
// stay at the head of that tenant's queue, later operations queue behind
// them, and the background loop retries with capped exponential backoff;
// other tenants keep writing directly. /healthz reports "degraded" while
// any tenant has such a backlog. Only a process crash while degraded
// loses the queued suffix — and /stats has been advertising exactly that
// risk.

// retryMin/retryMax bound the backoff of the store retry loop.
const (
	retryMin = 50 * time.Millisecond
	retryMax = 2 * time.Second
)

// enqueue queues op in the tenant's log; a store refusal (a sequencing
// or encoding error, which no retry can fix) is counted and yields seq 0.
func (s *Server) enqueue(id string, op store.Op) (seq uint64, snapDue bool) {
	if s.cfg.Store == nil {
		return 0, false
	}
	seq, snapDue, err := s.cfg.Store.Enqueue(id, op)
	if err != nil {
		s.counters.unlogged.Add(1)
		return 0, false
	}
	return seq, snapDue
}

// flush writes the tenant's queue through seq before the caller acks. A
// failure leaves the tenant degraded: the store counts it and the
// background loop retries.
func (s *Server) flush(id string, seq uint64) {
	if seq != 0 {
		_ = s.cfg.Store.Flush(id, seq)
	}
}

// logDecision enqueues a committed decision — op with the marshaled job
// (admit, update) and the committed priorities — and, when one is due, a
// snapshot of the state it leaves. The caller holds t.logMu, so the
// snapshot captures exactly the queued prefix. It returns the seq to
// flush (0: none).
func (s *Server) logDecision(id string, t *tenant, op store.Op, job model.Job) uint64 {
	if s.cfg.Store == nil {
		return 0
	}
	if op.Kind != store.OpRemove {
		raw, err := json.Marshal(job)
		if err != nil {
			s.counters.unlogged.Add(1)
			return 0
		}
		op.Job = raw
	}
	if s.cfg.Policy != admission.KeepPriorities {
		// KeepPriorities never moves priorities: the job records carry them.
		op.Pri = t.ctl.Priorities()
	}
	seq, due := s.enqueue(id, op)
	if !due {
		return seq
	}
	var jobs []json.RawMessage
	if sys := t.ctl.System(); sys != nil {
		jobs = make([]json.RawMessage, len(sys.Jobs))
		for k := range sys.Jobs {
			raw, err := json.Marshal(sys.Jobs[k])
			if err != nil {
				s.counters.unlogged.Add(1)
				return seq
			}
			jobs[k] = raw
		}
	}
	if err := s.cfg.Store.EnqueueSnapshot(id, t.spec, jobs); err != nil {
		s.counters.unlogged.Add(1)
	}
	return seq
}

// replayOpts are the execution options for startup replay: the
// configured worker pool, but no request context and no budget — replay
// re-applies decisions that already paid their analysis cost once, and a
// budget tuned for single decisions could starve a legitimate recovery.
func (s *Server) replayOpts() analysis.Options {
	opts := s.cfg.Opts
	opts.Context = nil
	opts.Budget = analysis.Budget{}
	return opts
}

// replayTenant rebuilds one tenant from its recovered snapshot + tail.
// A nil return with nil error means the tenant folded to dropped.
func (s *Server) replayTenant(rt store.RecoveredTenant) (*tenant, error) {
	opts := s.replayOpts()
	var ctl *admission.Controller
	var spec json.RawMessage

	boot := func(raw json.RawMessage) error {
		sys, err := model.LoadProcSpec(bytes.NewReader(raw), s.cfg.Limits)
		if err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		ctl, err = admission.NewWithOptions(sys.Procs, s.cfg.Policy, opts)
		if err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		spec = raw
		return nil
	}

	if rt.Snapshot != nil && rt.Snapshot.Live {
		if err := boot(rt.Snapshot.Spec); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		jobs := make([]model.Job, len(rt.Snapshot.Jobs))
		for i, raw := range rt.Snapshot.Jobs {
			job, err := model.LoadJobLimited(bytes.NewReader(raw), s.cfg.Limits)
			if err != nil {
				return nil, fmt.Errorf("snapshot job %d: %w", i, err)
			}
			jobs[i] = job
		}
		if err := ctl.ReinstateAll(jobs); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
	}
	for _, op := range rt.Tail {
		var err error
		switch op.Kind {
		case store.OpCreate:
			if ctl != nil {
				err = fmt.Errorf("create while live")
			} else {
				err = boot(op.Spec)
			}
		case store.OpDrop:
			ctl, spec = nil, nil
		case store.OpAdmit, store.OpRemove, store.OpMutate:
			var job model.Job
			if ctl == nil {
				err = fmt.Errorf("%s before create", op.Kind)
			} else if op.Kind != store.OpRemove {
				job, err = model.LoadJobLimited(bytes.NewReader(op.Job), s.cfg.Limits)
			}
			if err == nil {
				_, _, err = apply(ctl, op, job, opts, true)
			}
		default:
			err = fmt.Errorf("unknown operation kind %q", op.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("op %d (%s): %w", op.Seq, op.Kind, err)
		}
	}
	if ctl == nil {
		return nil, nil
	}
	if err := s.verifyReplay(ctl, opts); err != nil {
		return nil, err
	}
	return &tenant{ctl: ctl, spec: spec, lastUsed: s.now().UnixNano()}, nil
}

// verifyReplay cross-checks a recovered controller against a cold
// analysis of the same system: the recovered warm-session bounds must be
// field-identical to AnalyzeOpts on a fresh copy. This is the recovery
// self-check the store's crash-consistency argument leans on — a log
// that replays but converges elsewhere is quarantined, not served.
func (s *Server) verifyReplay(ctl *admission.Controller, opts analysis.Options) error {
	sys := ctl.System()
	if sys == nil {
		return nil // no jobs: nothing to cross-check
	}
	_, warm, err := ctl.NamedBounds()
	if err != nil {
		return fmt.Errorf("recovered bounds: %w", err)
	}
	cold, err := analysis.AnalyzeOpts(sys, opts)
	if err != nil {
		return fmt.Errorf("cold cross-check: %w", err)
	}
	if len(warm) != len(cold.WCRTSum) {
		return fmt.Errorf("cold cross-check: %d recovered bounds vs %d cold", len(warm), len(cold.WCRTSum))
	}
	for k := range warm {
		if warm[k] != cold.WCRTSum[k] {
			return fmt.Errorf("cold cross-check: job %d recovered bound %d != cold %d", k, warm[k], cold.WCRTSum[k])
		}
	}
	return nil
}

// replayAll rebuilds every tenant the store recovered. Semantic replay
// failures quarantine that tenant's directory (the framing was valid;
// the operations do not apply) and never abort startup.
func (s *Server) replayAll() {
	for _, rt := range s.cfg.Store.Tenants() {
		t, err := s.replayTenant(rt)
		if err != nil {
			s.counters.replayQuarantines.Add(1)
			s.recoveryNotes = append(s.recoveryNotes,
				fmt.Sprintf("tenant %s: replay: %v (quarantined)", rt.ID, err))
			if qerr := s.cfg.Store.QuarantineTenant(rt.ID); qerr != nil {
				s.recoveryNotes = append(s.recoveryNotes,
					fmt.Sprintf("tenant %s: quarantine failed: %v", rt.ID, qerr))
			}
			continue
		}
		if t == nil {
			continue
		}
		s.tenants[rt.ID] = t
	}
}
