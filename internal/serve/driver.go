package serve

import (
	"sync/atomic"
	"time"
)

// Driver paces one Node against a Clock from a single goroutine — the only
// goroutine that ever touches the node's simulation. HTTP handlers reach the
// node by enqueuing closures on a bounded command channel; the channel's
// capacity is the server's accept queue, and a full channel is backpressure
// the frontend surfaces as 503.
//
// The loop alternates between advancing the simulation to "now" on the
// clock, executing queued commands at that instant, and sleeping until
// whichever comes first: the next simulated event's wall time or a new
// command.
type Driver struct {
	node  *Node
	clock Clock

	cmds    chan func()
	stop    chan struct{} // closed by the drain command; loop exits
	done    chan struct{} // closed when the loop has exited
	stopped atomic.Bool   // guards double-close of stop
}

// NewDriver wraps node with a command loop paced by clock. queue bounds the
// accept queue (commands pending execution); values < 1 default to 64.
func NewDriver(node *Node, clock Clock, queue int) *Driver {
	if queue < 1 {
		queue = 64
	}
	return &Driver{
		node:  node,
		clock: clock,
		cmds:  make(chan func(), queue),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Node returns the driven node. Only the driver goroutine (inside a Do/Call
// closure) may touch it.
func (d *Driver) Node() *Node { return d.node }

// Start launches the pacing loop.
func (d *Driver) Start() { go d.loop() }

// Do enqueues fn for the driver goroutine, which runs it with the
// simulation advanced to the current clock instant. It reports false — and
// does not enqueue — when the accept queue is full or the driver has
// stopped: the caller's backpressure signal.
func (d *Driver) Do(fn func()) bool {
	select {
	case <-d.done:
		return false
	default:
	}
	select {
	case d.cmds <- fn:
		return true
	default:
		return false
	}
}

// Call runs fn on the driver goroutine and waits for it to finish. It
// reports false if the command could not be enqueued or the driver stopped
// before executing it.
func (d *Driver) Call(fn func()) bool {
	ran := make(chan struct{})
	if !d.Do(func() { fn(); close(ran) }) {
		return false
	}
	select {
	case <-ran:
		return true
	case <-d.done:
		// The loop exited with the command still queued.
		select {
		case <-ran:
			return true
		default:
			return false
		}
	}
}

// Done returns a channel closed when the pacing loop has exited.
func (d *Driver) Done() <-chan struct{} { return d.done }

// Shutdown gracefully drains the node: commands already queued execute
// first, then the node keeps pacing until every in-flight job reaches a
// terminal state or grace expires, at which point the remainder is forced
// off the GPU via the CPU-fallback path and the simulation runs to
// quiescence. It returns the number of jobs forced off. Callers must stop
// producing new work first. Safe to call once; repeat calls just wait.
func (d *Driver) Shutdown(grace time.Duration) int {
	forced := 0
	if d.stopped.CompareAndSwap(false, true) {
		deadline := time.Now().Add(grace)
		// Block (not Do) so the drain command cannot be lost to a full
		// queue; commands ahead of it drain quickly.
		select {
		case d.cmds <- func() {
			forced = d.drain(deadline)
			close(d.stop)
		}:
		case <-d.done:
			return 0
		}
	}
	<-d.done
	return forced
}

func (d *Driver) loop() {
	defer close(d.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		d.node.AdvanceTo(d.clock.Now())

		// Execute everything already queued at this instant.
	queued:
		for {
			select {
			case fn := <-d.cmds:
				d.node.AdvanceTo(d.clock.Now())
				fn()
				select {
				case <-d.stop:
					return
				default:
				}
			default:
				break queued
			}
		}

		// Sleep until the next simulated event is due — or indefinitely
		// when the node is idle — interruptible by new commands.
		var wake <-chan time.Time
		if te, ok := d.node.NextEvent(); ok {
			dur := d.clock.Until(te)
			if dur <= 0 {
				// Due exactly now: AdvanceTo's strictly-before semantics
				// would leave it pending forever on a clock that is not
				// moving, so run events at this instant inclusively.
				d.node.CatchUp(d.clock.Now())
				continue
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(dur)
			wake = timer.C
		}
		select {
		case fn := <-d.cmds:
			d.node.AdvanceTo(d.clock.Now())
			fn()
			select {
			case <-d.stop:
				return
			default:
			}
		case <-wake:
		case <-d.stop:
			return
		}
	}
}

// drain runs on the driver goroutine: paced execution until the node
// quiesces naturally or the wall deadline passes, then forced CPU fallback
// for whatever is left. Returns the number of jobs forced off the GPU.
func (d *Driver) drain(deadline time.Time) int {
	for {
		d.node.AdvanceTo(d.clock.Now())
		if d.node.UnfinishedCount() == 0 {
			return 0
		}
		te, ok := d.node.NextEvent()
		if !ok {
			break // in-flight jobs but no events: only fallback can finish them
		}
		dur := d.clock.Until(te)
		if time.Now().Add(dur).After(deadline) {
			break // the next completion lands past the grace period
		}
		if dur > 0 {
			time.Sleep(dur)
		} else {
			d.node.CatchUp(d.clock.Now())
		}
	}
	d.node.AdvanceTo(d.clock.Now())
	return d.node.ForceDrain()
}
