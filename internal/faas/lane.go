package faas

import "repro/internal/simclock"

// Lane is a concurrent sub-lane of one function instance: a second
// stream of work running inside the same execution, started with Ctx.Go
// and joined with Wait. The engine's double-buffered data plane uses a
// lane to overlap the next part's download with the current part's
// upload.
type Lane struct {
	done *simclock.Group
}

// Go runs fn as a concurrent sub-lane of the instance on the virtual
// clock. The sub-context shares the instance (and therefore its
// bandwidth multiplier and crash fate), configuration and start time;
// only the trace span differs — it forks onto its own lane under name so
// overlapped work renders and attributes as concurrent.
//
// The handler must Wait for every lane it started before returning:
// execution is billed by the handler's wall duration, and a lane must
// not outlive the instance it runs in.
func (c *Ctx) Go(name string, fn func(sub *Ctx)) *Lane {
	sub := &Ctx{
		Instance: c.Instance,
		Region:   c.Region,
		Config:   c.Config,
		Started:  c.Started,
		Clock:    c.Clock,
		Span:     c.Span.Fork(name),
		crashAt:  c.crashAt,
		hasCrash: c.hasCrash,
	}
	l := &Lane{done: c.Clock.NewGroup(1)}
	c.Clock.Go(func() {
		defer l.done.Done()
		defer sub.Span.End()
		fn(sub)
	})
	return l
}

// Wait blocks the calling actor until the lane's function has returned.
func (l *Lane) Wait() { l.done.Wait() }
