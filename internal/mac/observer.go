package mac

import (
	"macaw/internal/frame"
	"macaw/internal/sim"
)

// multiObserver fans every hook out to several observers in attachment
// order.
type multiObserver struct {
	obs []Observer
}

// CombineObservers composes observers into one. nil entries are skipped; a
// single survivor is returned unwrapped, and nil is returned when none
// remain.
func CombineObservers(os ...Observer) Observer {
	var kept []Observer
	for _, o := range os {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &multiObserver{obs: kept}
}

func (m *multiObserver) ObserveTx(f *frame.Frame) {
	for _, o := range m.obs {
		o.ObserveTx(f)
	}
}

func (m *multiObserver) ObserveRx(f *frame.Frame) {
	for _, o := range m.obs {
		o.ObserveRx(f)
	}
}

func (m *multiObserver) ObserveState(from, to string) {
	for _, o := range m.obs {
		o.ObserveState(from, to)
	}
}

func (m *multiObserver) ObserveTimer(at sim.Time) {
	for _, o := range m.obs {
		o.ObserveTimer(at)
	}
}

func (m *multiObserver) ObserveQueue(op string, dst frame.NodeID, n int) {
	for _, o := range m.obs {
		o.ObserveQueue(op, dst, n)
	}
}

func (m *multiObserver) ObserveDeliver(f *frame.Frame) {
	for _, o := range m.obs {
		o.ObserveDeliver(f)
	}
}

func (m *multiObserver) ObserveRetry(dst frame.NodeID) {
	for _, o := range m.obs {
		o.ObserveRetry(dst)
	}
}

func (m *multiObserver) ObserveDrop(dst frame.NodeID, reason DropReason) {
	for _, o := range m.obs {
		o.ObserveDrop(dst, reason)
	}
}
