package mac

import "macaw/internal/sim"

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
// internal/experiments (DESIGN.md §16). Every engine embeds Base (base.go),
// which implements the plumbing each convention marks with (Base) once for
// all of them:
//
//   - Observer discipline: ObserveTx immediately before Radio.Transmit
//     (Base.Transmit); ObserveRx for every clean reception a live engine
//     processes (Base.Receive); ObserveQueue("push"/"pop"/"drop") with the
//     post-op length (Base.NoteQueue); ObserveTimer(when) on arm and
//     ObserveTimer(-1) on cancel (Base.ArmAt, Base.ClearTimer);
//     ObserveState only on actual change (Base.NoteState); ObserveDeliver
//     before the Deliver callback (Base.Deliver); ObserveRetry and
//     ObserveDrop with every Retries and Drops increment (Base.Retry,
//     Base.Drop).
//   - Halt discipline: cancel the state timer, reporting ObserveTimer(-1)
//     (Base.BeginHalt), return to the idle state, drain the queue as drops
//     counted in Stats().Drops and reported via ObserveDrop and the Dropped
//     callback with DropDisabled (Base.DrainQueue), and turn every entry
//     point — Enqueue (Base.Admit), radio indications (Base.Receive), stray
//     timers — into a no-op.
//   - Liveness invariant (the fault watchdog's wedge rule): whenever the
//     engine is quiescent in a non-idle FSM state, or idle with a non-empty
//     queue, a timer must be pending.
//   - Packet lifetime: a packet is dead once its Sent or Dropped callback
//     returns. The engine keeps no reference to it (queue, pending entry,
//     in-flight slot) and reads none of its fields afterwards, so the host
//     may zero and reuse the record for a later offer (see Callbacks).
//   - Visible state: everything that can affect future behavior is held
//     in the engine's fields or what they point to, never only in a
//     closure, since the passivity and replay tests compare engines
//     through a reflective dump (internal/statecheck) that cannot see
//     captured variables.
type Engine interface {
	MAC

	// Halt silences the instance permanently: the state timer is
	// cancelled, queued packets are dropped (reported via the Dropped
	// callback with DropDisabled), and every subsequent enqueue, radio
	// indication, or stray timer becomes a no-op. A crashed station halts
	// its MAC so a later restart can bind a fresh instance to the same
	// radio without the two fighting over it.
	Halt()
	// Halted reports whether Halt has been called on this instance.
	Halted() bool

	// FSMState names the current protocol state ("IDLE", "WFCTS", ...).
	FSMState() string
	// TimerPending reports whether a state timer (or scheduled
	// continuation) is armed.
	TimerPending() bool
	// TimerWhen reports when the pending timer fires, or -1 when none is
	// armed.
	TimerWhen() sim.Time

	// Protocol returns the engine's stable protocol name ("csma", "maca",
	// "macaw", "token", "dcf", "tournament"). The conformance oracle and
	// the sweep delta taxonomy dispatch on it instead of on concrete types.
	Protocol() string
}
