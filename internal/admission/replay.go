package admission

import (
	"errors"
	"fmt"

	"rta/internal/model"
)

// This file is the store-replay surface of the controller: operations
// decided and committed in a previous process life, re-applied through
// the live implementations with their logged priority vectors pinned
// (see settle). No verdict is re-decided and no priority policy
// (DeadlineMonotonic, Audsley) is re-run.

// Priorities returns the committed priority assignment: Priorities()[k][j]
// is admitted job k's hop-j priority, in committed job order. The serve
// layer logs this vector alongside each committed operation when the
// policy reassigns priorities, so replay reproduces the assignment
// without re-running the policy.
func (c *Controller) Priorities() [][]int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sys := c.sess.System()
	out := make([][]int, len(sys.Jobs))
	for k := range sys.Jobs {
		out[k] = make([]int, len(sys.Jobs[k].Subjobs))
		for j := range sys.Jobs[k].Subjobs {
			out[k][j] = sys.Jobs[k].Subjobs[j].Priority
		}
	}
	return out
}

// Reinstate re-applies one committed admission: the admission with the
// logged priority vector pinned, so no schedulability decision runs — the
// decision was made (and acknowledged) before the operation was logged.
// Any failure leaves the controller unchanged.
func (c *Controller) Reinstate(job model.Job, pri [][]int) error {
	defer c.lock(c.opts)()
	_, err := c.admit(job, &pri)
	return err
}

// ReinstateAll seeds an empty controller from a snapshot's admitted set:
// every job is staged (with its snapshotted priorities baked into the
// records) and the batch converges once — one fixed point for the whole
// set instead of one per job. On error the controller stays empty.
func (c *Controller) ReinstateAll(jobs []model.Job) (err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.index) != 0 {
		return errors.New("admission: ReinstateAll needs an empty controller")
	}
	defer func() {
		if err != nil {
			clear(c.index)
		}
	}()
	for i := range jobs {
		_, dup := c.index[jobs[i].Name]
		switch {
		case jobs[i].Name == "":
			err = fmt.Errorf("admission: snapshot job %d has no name", i)
		case dup:
			err = fmt.Errorf("admission: snapshot repeats job %q", jobs[i].Name)
		default:
			if err = c.sess.ValidateJob(&jobs[i]); err != nil {
				err = fmt.Errorf("admission: snapshot job %q: %w", jobs[i].Name, err)
			}
		}
		if err != nil {
			c.sess.Rollback()
			return err
		}
		c.index[jobs[i].Name] = i
		c.sess.Admit(jobs[i])
	}
	// The records carry their priorities: the pin moves none.
	_, err = c.settle(new([][]int), true)
	return err
}

// ReinstateRemove re-applies one committed removal with its logged
// post-removal priority vector pinned. The named job must be admitted — a
// log that removes an absent job is semantically inconsistent and
// surfaces as an error for the caller to quarantine.
func (c *Controller) ReinstateRemove(name string, pri [][]int) error {
	defer c.lock(c.opts)()
	present, err := c.remove(name, &pri)
	return absent(name, present, err)
}

// ReinstateUpdate re-applies one committed in-place job replacement
// (same name, same hop count) with its logged priority vector pinned.
func (c *Controller) ReinstateUpdate(job model.Job, pri [][]int) error {
	defer c.lock(c.opts)()
	present, _, err := c.update(job, &pri)
	return absent(job.Name, present, err)
}

// absent turns a replayed operation's missing target into an error.
func absent(name string, present bool, err error) error {
	if err == nil && !present {
		return fmt.Errorf("admission: job %q not admitted", name)
	}
	return err
}

// replaceJob builds the Mutate body that swaps job k's record for a deep
// copy of job, enforcing the shape the session's delta machinery needs
// (the warm mutation path forbids hop-count changes).
func replaceJob(k int, job model.Job) func(*model.System) error {
	return func(sys *model.System) error {
		old := &sys.Jobs[k]
		if old.Name != job.Name {
			return fmt.Errorf("update targets job %q but slot %d holds %q", job.Name, k, old.Name)
		}
		if len(job.Subjobs) != len(old.Subjobs) {
			return fmt.Errorf("update must keep the hop count (%d), got %d", len(old.Subjobs), len(job.Subjobs))
		}
		sys.Jobs[k] = deepCopyJob(job)
		return nil
	}
}

// deepCopyJob detaches a caller-owned job record before the session
// takes ownership of it.
func deepCopyJob(job model.Job) model.Job {
	job.Subjobs = append([]model.Subjob(nil), job.Subjobs...)
	for x := range job.Subjobs {
		job.Subjobs[x].CS = append([]model.CriticalSection(nil), job.Subjobs[x].CS...)
	}
	job.Releases = append([]model.Ticks(nil), job.Releases...)
	job.Phases = append([]model.Ticks(nil), job.Phases...)
	if job.Precedence != nil {
		prec := make([][]int, len(job.Precedence))
		for x := range job.Precedence {
			prec[x] = append([]int(nil), job.Precedence[x]...)
		}
		job.Precedence = prec
	}
	return job
}
