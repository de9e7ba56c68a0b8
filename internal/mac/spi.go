package mac

// This file defines the explicit MAC service-provider interface (SPI). The
// protocol engines (csma, maca, macaw, token, dcf, tournament) used to agree
// on lifecycle, introspection and snapshotting only by convention —
// each capability was an optional interface probed with a type assertion, so
// an engine could silently miss one (the token scheme shipped without Halt,
// observer hooks, or queue-drop accounting for exactly that reason). Engine
// turns the convention into a compiler-checked contract: core.MACFactory
// returns an Engine, so a backend that misses any piece of the SPI no longer
// builds.
//
// The SPI's behavioral conventions, enforced by the conformance suite in
// internal/experiments (DESIGN.md §16):
//
//   - Observer discipline: ObserveTx immediately before Radio.Transmit;
//     ObserveRx for every clean reception a live engine processes;
//     ObserveQueue("push"/"pop"/"drop") with the post-op length;
//     ObserveTimer(when) on arm and ObserveTimer(-1) on cancel;
//     ObserveState only on actual change; ObserveDeliver before the Deliver
//     callback.
//   - Halt discipline: cancel the state timer (reporting ObserveTimer(-1)),
//     return to the idle state, drain the queue as drops counted in
//     Stats().Drops and reported via LossObserver.ObserveDrop and the
//     Dropped callback with DropDisabled, and turn every entry point —
//     Enqueue, radio indications, stray timers — into a no-op.
//   - Liveness invariant (the fault watchdog's wedge rule): whenever the
//     engine is quiescent in a non-idle FSM state, or idle with a non-empty
//     queue, a timer must be pending.
//   - Packet lifetime: a packet is dead once its Sent or Dropped callback
//     returns. The engine keeps no reference to it (queue, pending entry,
//     in-flight slot) and reads none of its fields afterwards, so the host
//     may zero and reuse the record for a later offer (see Callbacks).
//   - AppendState completeness: every field that can affect future behavior
//     appears in the dump; the passivity and replay tests diff the dumps.
type Engine interface {
	MAC
	Halter
	Inspector

	// Halted reports whether Halt has been called on this instance.
	Halted() bool

	// Protocol returns the engine's stable protocol name ("csma", "maca",
	// "macaw", "token", "dcf", "tournament"). The conformance oracle and
	// the sweep delta taxonomy dispatch on it instead of on concrete types.
	Protocol() string

	// AppendState appends the engine's canonical FSM dump for the snapshot
	// state inventory (DESIGN.md §14).
	AppendState(b []byte) []byte
}
