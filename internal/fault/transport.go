package fault

import (
	"fmt"
	"time"
)

// Deliver applies the injector's schedule to one delivery to node `to`:
// it is the netsim.Config.Inject middleware, so the same faults are woven
// into every link. deliver crosses the wire once per call; a fault runs it
// zero times (the request is lost or refused), once, or twice (a
// retransmission racing the original).
func (i *Injector) Deliver(to int, req any, deliver func() (any, error)) (any, error) {
	i.tick()
	if i.Down(to) {
		i.deniedDown()
		return nil, NodeDownError{Node: to}
	}
	k, ok := i.decide()
	if !ok {
		return deliver()
	}
	switch k {
	case KindDropRequest:
		return nil, fmt.Errorf("fault: request %T to node %d dropped: %w", req, to, ErrTransient)
	case KindHandlerErr:
		return nil, fmt.Errorf("fault: node %d refused %T: %w", to, req, ErrTransient)
	case KindDropReply:
		// Deliver and execute, then lose the answer. If the handler
		// itself failed, surface the real error (nothing was applied).
		if _, err := deliver(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("fault: reply from node %d for %T dropped: %w", to, req, ErrTransient)
	case KindDuplicate:
		// The request reaches the node twice. Sequence-number dedup must
		// make the second delivery a no-op.
		if _, err := deliver(); err != nil {
			return nil, err
		}
		return deliver()
	case KindDelay:
		if d := i.cfg.DelayDuration; d > 0 {
			time.Sleep(d)
		}
		return deliver()
	default:
		return deliver()
	}
}
