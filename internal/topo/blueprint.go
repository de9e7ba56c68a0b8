package topo

import (
	"fmt"

	"macaw/internal/core"
	"macaw/internal/sim"
)

// Blueprint converts the layout into a declarative core.Blueprint with
// every station running the protocol built by f, resolving stream endpoint
// names to station indices. The blueprint's Verify hook re-checks the
// layout's hearing relations on whatever network subset the runner
// materializes: relations whose endpoints are both present are verified
// against the physics; relations split across shard components are skipped
// — the partition's cutoff certificate already proves those pairs cannot
// hear each other, and a Hears=true relation can never straddle components
// (hearing implies a gain at or above the reception threshold, which is
// above the negligibility floor, which is within the cutoff).
func (l Layout) Blueprint(f core.MACFactory) (core.Blueprint, error) {
	bp := core.Blueprint{
		Stations: make([]core.BlueprintStation, 0, len(l.Stations)),
		Streams:  make([]core.BlueprintStream, 0, len(l.Streams)),
	}
	index := make(map[string]int, len(l.Stations))
	for i, s := range l.Stations {
		if _, dup := index[s.Name]; dup {
			return core.Blueprint{}, fmt.Errorf("topo: duplicate station name %q", s.Name)
		}
		index[s.Name] = i
		bp.Stations = append(bp.Stations, core.BlueprintStation{
			Name: s.Name, Pos: s.Pos, Factory: f,
		})
	}
	for _, s := range l.Streams {
		from, okFrom := index[s.From]
		to, okTo := index[s.To]
		if !okFrom || !okTo {
			return core.Blueprint{}, fmt.Errorf("topo: stream %s-%s references unknown station", s.From, s.To)
		}
		bp.Streams = append(bp.Streams, core.BlueprintStream{
			From: from, To: to, Kind: s.Kind, Rate: s.Rate,
			Start: sim.FromSeconds(s.StartSec),
		})
	}
	relations := l.Relations
	name := l.Name
	bp.Verify = func(n *core.Network) error {
		for _, r := range relations {
			a, b := n.Station(r.A), n.Station(r.B)
			if a == nil || b == nil {
				continue // split across components: certified out of range
			}
			got := n.Medium.InRange(a.Radio(), b.Radio())
			if got != r.Hears {
				return fmt.Errorf("topo %s: %s hears %s = %v, want %v", name, r.A, r.B, got, r.Hears)
			}
		}
		return nil
	}
	return bp, nil
}
