package oracle

import (
	"fmt"

	"macaw/internal/frame"
)

// AdoptFrom copies w's audit expectations into o, which must be attached to
// an identically built network (DESIGN.md §15). The oracle is passive — it
// schedules nothing and draws no randomness — so adoption is pure data: the
// violation record plus each monitor's protocol expectations. The clock and
// MAC accessors every monitor closed over at build time already reference the
// fork's own stations and are left untouched; the lazily derived protocol
// kind and options are copied (both sides derive them from identical MACs,
// but the fork has processed no events yet, so its own derivation has not
// happened). It fails closed when the two oracles do not monitor the same
// station set.
func (o *Oracle) AdoptFrom(w *Oracle) error {
	if o.seed != w.seed {
		return fmt.Errorf("oracle: adopt: seed %d here vs %d in warm twin", o.seed, w.seed)
	}
	if len(o.mons) != len(w.mons) {
		return fmt.Errorf("oracle: adopt: %d monitors here vs %d in warm twin", len(o.mons), len(w.mons))
	}
	for id := range w.mons {
		if o.mons[id] == nil {
			return fmt.Errorf("oracle: adopt: no monitor for station %d here", id)
		}
	}
	o.violations = append(o.violations[:0], w.violations...)
	o.total = w.total
	for id, wm := range w.mons {
		m := o.mons[id]
		m.kind = wm.kind
		m.opts = wm.opts
		m.ring, m.next, m.n = wm.ring, wm.next, wm.n
		m.horizon = wm.horizon
		m.pendingRTS = copyOracleMap(wm.pendingRTS)
		m.solicited = copyOracleMap(wm.solicited)
		m.grant = copyOracleMap(wm.grant)
		m.dsSent = copyOracleMap(wm.dsSent)
		m.esnTx = copyOracleMap(wm.esnTx)
		m.lastData = copyOracleMap(wm.lastData)
		m.delivered = make(map[stream]uint32, len(wm.delivered))
		for k, v := range wm.delivered {
			m.delivered[k] = v
		}
	}
	return nil
}

func copyOracleMap[V bool | uint32](src map[frame.NodeID]V) map[frame.NodeID]V {
	dst := make(map[frame.NodeID]V, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}
