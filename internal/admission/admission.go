// Package admission implements the run-time use the paper's introduction
// frames the analysis for: an admission controller for dynamic job sets.
// A controller owns a fixed processor set and a set of admitted jobs;
// each request is granted exactly when the configured analysis certifies
// every deadline - of the newcomer and of everything already admitted -
// with the newcomer included.
//
// The controller runs on a warm analysis.Session: the converged fixed
// point of the admitted set stays resident, each request re-converges
// only the dependency cone of the change, and a rejected request rolls
// back in O(1). Decisions are bit-identical to cold re-analysis of every
// trial system (see analysis.Session).
package admission

import (
	"errors"
	"fmt"
	"sync"

	"rta/internal/analysis"
	"rta/internal/curve"
	"rta/internal/model"
	"rta/internal/priority"
)

// PriorityPolicy selects how subjob priorities are maintained as the job
// set changes.
type PriorityPolicy int

const (
	// KeepPriorities uses the priorities carried by the submitted jobs.
	KeepPriorities PriorityPolicy = iota
	// DeadlineMonotonic reassigns all priorities with the paper's
	// Equation (24) rule after every change.
	DeadlineMonotonic
	// Synthesized searches for a schedulable assignment with Audsley's
	// algorithm on every request, falling back to rejecting the request
	// when none is found.
	Synthesized
)

// Controller is a stateful admission controller over a warm analysis
// session. Admission decisions are serialized internally; Bounds may be
// called concurrently with requests and serves the last committed
// converged state.
type Controller struct {
	mu     sync.RWMutex
	policy PriorityPolicy
	sess   *analysis.Session
	// opts are the construction-time execution options; the per-request
	// variants (RequestOpts, RemoveOpts, UpdateOpts) swap theirs in for one
	// decision and restore these afterwards.
	opts analysis.Options
	// index maps an admitted job name to its index in the committed
	// system, replacing the per-request linear name scans.
	index map[string]int
}

// testHookAssign, when non-nil, is injected at the top of every staged
// priority reassignment. The error-injection tests use it to force
// Mutate failures on paths (like removal) that cannot fail naturally.
var testHookAssign func() error

// New creates a controller over the given processors.
func New(procs []model.Processor, policy PriorityPolicy) *Controller {
	c, err := NewWithOptions(procs, policy, analysis.Options{})
	if err != nil {
		// Unreachable: converging an empty job set cannot fail.
		panic(err)
	}
	return c
}

// NewWithOptions is New with analysis execution options (worker pool,
// cancellation context, resource budgets) threaded through every
// admission decision.
func NewWithOptions(procs []model.Processor, policy PriorityPolicy, opts analysis.Options) (*Controller, error) {
	sys := &model.System{Procs: append([]model.Processor(nil), procs...)}
	sess, err := analysis.NewSession(sys, analysis.SessionConfig{Opts: opts})
	if err != nil {
		return nil, fmt.Errorf("admission: %w", err)
	}
	return &Controller{policy: policy, sess: sess, opts: opts, index: map[string]int{}}, nil
}

// System returns the currently admitted system (nil when no jobs are
// admitted yet). The result is a snapshot; mutating it does not affect
// the controller.
func (c *Controller) System() *model.System {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sys := c.sess.System()
	if len(sys.Jobs) == 0 {
		return nil
	}
	return sys
}

// Len returns the number of admitted jobs.
func (c *Controller) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.index)
}

// ErrDuplicate rejects a request whose name is already admitted.
var ErrDuplicate = errors.New("admission: job name already admitted")

// lock takes the write lock and applies opts to the one operation it
// guards; the returned func restores the construction-time options and
// unlocks.
func (c *Controller) lock(opts analysis.Options) (unlock func()) {
	c.mu.Lock()
	c.sess.SetOptions(opts)
	return func() {
		c.sess.SetOptions(c.opts)
		c.mu.Unlock()
	}
}

// Every operation kind (admit, remove, update) has one implementation,
// shared by live decisions and log replay, and settle is its tail. The
// pin says where the operation's priorities come from. Live (nil pin),
// the policy sets them and the schedulability verdict decides whether
// the change commits. Replayed, pin holds the logged post-operation
// vector: it is applied as is and the operation commits, because it was
// decided before it was logged — so replay walks the session through
// exactly the staged states the live decision did.
//
// settle sets the staged operation's priorities, converges and commits.
// A convergence error vetoes the operation when veto is set; otherwise (a
// removal: the shrink itself is always sound) the operation commits with
// a stale result, which the next Bounds repairs. Every failure rolls the
// staged state back.
func (c *Controller) settle(pin *[][]int, veto bool) (bool, error) {
	ok, err := true, c.prioritize(pin)
	switch {
	case err != nil: // the priorities could not be set: roll back
	case !veto:
		_, _ = c.sess.Converge()
	case pin != nil:
		_, err = c.sess.Converge()
	default:
		ok, err = c.sess.Schedulable()
	}
	if err == nil && ok {
		c.sess.Commit()
		return true, nil
	}
	c.sess.Rollback()
	if err != nil {
		return false, fmt.Errorf("admission: %w", err)
	}
	return false, nil
}

// prioritize stages the operation's priorities on the working system:
// the pinned vector as is (nil: the operation moved none), or else the
// policy's maintenance.
func (c *Controller) prioritize(pin *[][]int) error {
	if pin == nil && c.policy != DeadlineMonotonic || pin != nil && *pin == nil {
		return nil // nothing moves
	}
	return c.sess.Mutate(func(sys *model.System) error {
		if pin == nil {
			if testHookAssign != nil {
				if err := testHookAssign(); err != nil {
					return err
				}
			}
			priority.RelativeDeadlineMonotonic(sys)
			return nil
		}
		pri := *pin
		if len(pri) != len(sys.Jobs) {
			return fmt.Errorf("priority vector covers %d jobs, system has %d", len(pri), len(sys.Jobs))
		}
		for k := range sys.Jobs {
			if len(pri[k]) != len(sys.Jobs[k].Subjobs) {
				return fmt.Errorf("job %d priority vector has %d hops, job has %d", k, len(pri[k]), len(sys.Jobs[k].Subjobs))
			}
			for j := range sys.Jobs[k].Subjobs {
				sys.Jobs[k].Subjobs[j].Priority = pri[k][j]
			}
		}
		return nil
	})
}

// Request decides whether the job can be admitted. On success the job is
// added to the admitted set; on failure the set is unchanged. The
// decision uses the exact analysis on all-SPP resource-free systems and
// the Theorem 4 bounds otherwise, warm-started from the resident state.
func (c *Controller) Request(job model.Job) (bool, error) {
	return c.RequestOpts(job, c.opts)
}

// RequestOpts is Request with one-shot execution options (a per-request
// context, budget, or worker count) applied to this decision only; the
// construction-time options are restored afterwards. The serve layer uses
// this to bind each HTTP request's context and budget to its decision.
func (c *Controller) RequestOpts(job model.Job, opts analysis.Options) (bool, error) {
	defer c.lock(opts)()
	return c.admit(job, nil)
}

// admit is the one admission: live it is the admission test, pinned the
// replay of a granted one (see settle).
func (c *Controller) admit(job model.Job, pin *[][]int) (bool, error) {
	if job.Name == "" {
		return false, errors.New("admission: job needs a name")
	}
	if _, dup := c.index[job.Name]; dup {
		return false, ErrDuplicate
	}
	if err := c.sess.ValidateJob(&job); err != nil {
		return false, fmt.Errorf("admission: %w", err)
	}
	var ok bool
	var err error
	if pin == nil && c.policy == Synthesized {
		ok, err = c.admitSynthesized(job)
	} else {
		c.sess.Admit(job)
		ok, err = c.settle(pin, true)
	}
	if ok {
		c.index[job.Name] = c.sess.Jobs() - 1
	}
	return ok, err
}

// admitSynthesized searches for a schedulable assignment with Audsley's
// algorithm, keeping the submitted assignment as the fallback: Audsley is
// optimal per processor but heuristic end-to-end, so it can miss
// assignments - including the one the caller provided. Every trial
// evaluation re-converges only the cone of the priorities that moved.
func (c *Controller) admitSynthesized(job model.Job) (bool, error) {
	cp := c.sess.Snapshot()
	c.sess.Admit(job)
	// One converge up front surfaces validation errors before the search
	// and warms the resident state the trial deltas extend.
	if _, err := c.sess.Converge(); err != nil {
		c.sess.Restore(cp)
		return false, fmt.Errorf("admission: %w", err)
	}
	trial := c.sess.WorkingSystem()
	ok, err := priority.Audsley(trial, func(s *model.System, k int) (bool, error) {
		// Audsley mutates the trial copy; resync the session (the delta
		// seeding dirties exactly the subjobs whose priority moved) and
		// re-converge warm.
		if err := c.sess.Mutate(func(m *model.System) error {
			for kk := range m.Jobs {
				for j := range m.Jobs[kk].Subjobs {
					m.Jobs[kk].Subjobs[j].Priority = s.Jobs[kk].Subjobs[j].Priority
				}
			}
			return nil
		}); err != nil {
			return false, err
		}
		res, err := c.sess.Converge()
		if err != nil {
			return false, err
		}
		return !curve.IsInf(res.WCRTSum[k]) && res.WCRTSum[k] <= s.Jobs[k].Deadline, nil
	})
	if err != nil {
		c.sess.Restore(cp)
		return false, fmt.Errorf("admission: %w", err)
	}
	if ok {
		// Audsley's final full verification converged the session at the
		// found assignment; the staged state is the admitted one.
		c.sess.Commit()
		return true, nil
	}
	// Fallback: retry with the submitted priorities.
	c.sess.Restore(cp)
	c.sess.Admit(job)
	return c.settle(nil, true)
}

// RemoveErr drops a job by name. The bool reports whether the job was
// present; a non-nil error means the removal could not be applied and the
// admitted set is unchanged — every failure path (a session removal
// error, a failed priority reassignment) rolls the staged state back, so
// a partially-mutated configuration is never committed. An engine error
// during the post-removal re-convergence does not veto the removal (the
// shrink itself is always sound): the removal commits with a stale
// committed result, which the next Bounds repairs.
func (c *Controller) RemoveErr(name string) (bool, error) {
	return c.RemoveOpts(name, c.opts)
}

// RemoveOpts is RemoveErr with one-shot execution options for this
// decision, as RequestOpts.
func (c *Controller) RemoveOpts(name string, opts analysis.Options) (bool, error) {
	defer c.lock(opts)()
	return c.remove(name, nil)
}

// remove is the one removal (see settle).
func (c *Controller) remove(name string, pin *[][]int) (bool, error) {
	k, ok := c.index[name]
	if !ok {
		return false, nil
	}
	if err := c.sess.Remove(k); err != nil {
		// The failed stage left delta bookkeeping behind; discard it so it
		// cannot leak into the next decision.
		c.sess.Rollback()
		return true, fmt.Errorf("admission: %w", err)
	}
	if _, err := c.settle(pin, false); err != nil {
		// A failed reassignment must not commit the removal with stale or
		// partially-mutated priorities: settle unwound to the committed
		// state and the job stays admitted.
		return true, err
	}
	delete(c.index, name)
	for n, i := range c.index {
		if i > k {
			c.index[n] = i - 1
		}
	}
	return true, nil
}

// UpdateOpts re-decides an admitted job in place under one-shot execution
// options, as RequestOpts: the record under job.Name is replaced (same hop
// count) and the new configuration admitted only if every deadline still
// holds. present reports whether the name was admitted at all; ok the
// decision. On rejection or error the admitted set is unchanged. Under
// the Synthesized policy the update keeps the submitted priorities — no
// Audsley re-synthesis on this path.
func (c *Controller) UpdateOpts(job model.Job, opts analysis.Options) (present, ok bool, err error) {
	defer c.lock(opts)()
	return c.update(job, nil)
}

// update is the one in-place update (see settle).
func (c *Controller) update(job model.Job, pin *[][]int) (present, ok bool, err error) {
	if job.Name == "" {
		return false, false, errors.New("admission: job needs a name")
	}
	k, found := c.index[job.Name]
	if !found {
		return false, false, nil
	}
	if err := c.sess.ValidateJob(&job); err != nil {
		return true, false, fmt.Errorf("admission: %w", err)
	}
	if err := c.sess.Mutate(replaceJob(k, job)); err != nil {
		c.sess.Rollback()
		return true, false, fmt.Errorf("admission: %w", err)
	}
	ok, err = c.settle(pin, true)
	return true, ok, err
}

// Bounds returns the current worst-case response bounds per admitted job,
// served from the session's converged resident state — no re-analysis
// unless a prior engine error left the committed state stale.
func (c *Controller) Bounds() ([]model.Ticks, error) {
	_, bounds, err := c.NamedBounds()
	return bounds, err
}

// NamedBounds is Bounds plus the admitted job names, in the committed
// system's job order, taken in one consistent snapshot.
func (c *Controller) NamedBounds() ([]string, []model.Ticks, error) {
	c.mu.RLock()
	res, err := c.sess.Result()
	if err == nil || !errors.Is(err, analysis.ErrNotConverged) {
		defer c.mu.RUnlock()
		if err != nil {
			return nil, nil, fmt.Errorf("admission: %w", err)
		}
		names, bounds := c.namedLocked(res)
		return names, bounds, nil
	}
	c.mu.RUnlock()
	// Stale committed state (an engine error during a removal): repair
	// under the write lock. Between the read unlock and the write lock a
	// concurrent Request/Remove may have committed a fresh state, so
	// re-check staleness before repairing — a blind re-converge would
	// re-commit over their result.
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err = c.sess.Result()
	if err == nil {
		names, bounds := c.namedLocked(res)
		return names, bounds, nil
	}
	if !errors.Is(err, analysis.ErrNotConverged) {
		return nil, nil, fmt.Errorf("admission: %w", err)
	}
	res, err = c.sess.Converge()
	if err != nil {
		return nil, nil, fmt.Errorf("admission: %w", err)
	}
	c.sess.Commit()
	names, bounds := c.namedLocked(res)
	return names, bounds, nil
}

// namedLocked assembles the (names, bounds) pair from a converged result;
// the caller holds c.mu (read or write). Names come from the index map —
// no system clone on this per-query path.
func (c *Controller) namedLocked(res *analysis.Result) ([]string, []model.Ticks) {
	if len(res.WCRTSum) == 0 {
		return nil, nil
	}
	names := make([]string, len(c.index))
	for n, i := range c.index {
		names[i] = n
	}
	return names, append([]model.Ticks(nil), res.WCRTSum...)
}
