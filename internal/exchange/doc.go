// Package exchange implements the paper's information-exchange protocols:
//
//   - Min: the minimal exchange Emin(n) of Section 6 — agents are silent
//     except in the round they decide, when they broadcast the decided bit.
//   - Basic: the basic exchange Ebasic(n) of Section 6 — additionally,
//     undecided agents with initial preference 1 broadcast (init,1) every
//     round, and states carry the counter #1 of such messages received in
//     the last round.
//   - FIP: the full-information exchange Efip(n) of Section 7 / A.2.7,
//     with communication graphs as both local states and messages.
//
// Every exchange satisfies the EBA-context conventions of Section 5: local
// states carry ⟨time, init, decided, jd⟩, time advances by one each round,
// and the message classes M0 (deciding 0), M1 (deciding 1), and M2 (other)
// are disjoint, exposed through Message.Announces.
package exchange
