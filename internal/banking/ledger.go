// Package banking models the future-of-banking ecosystem of paper §6.4: a
// transaction ledger with strict conservation invariants (the validation
// burden the paper describes for regulated industries) and a PSD2-style
// clearing pipeline in which payment transactions must complete within
// regulatory deadlines — "PSD2 enforces strict performance targets,
// including deadlines in clearing financial transactions".
//
// Both halves keep their hot state columnar (the struct-of-arrays scheme
// gaming and social use, DESIGN.md "Columnar scenario state"): in-flight
// transactions and ledger accounts are integer handles into parallel
// columns, per-stage queues are handle rings and 4-ary index heaps
// (queues.go), and steady-state operation — a service completion, a queue
// pull, a warm Transfer — allocates nothing. The alloc probes and
// BenchmarkBankingMillionTransactions pin this at 1M transactions.
package banking

import (
	"errors"
	"fmt"
)

// AccountID identifies a ledger account.
type AccountID string

// Account is an integer handle into the ledger's columns — the hot-path
// identity. Resolve it once at build time with Handle (or keep the value
// Open returns through OpenAccount) and transfer through TransferBetween;
// the string→handle map is touched only at open/lookup time.
type Account int32

// Ledger is an in-memory double-entry account book. Amounts are integer
// cents: money must never be created or destroyed by rounding (the
// conservation invariant property tests enforce).
//
// State is columnar: balances live in a flat int64 column indexed by
// account handle, and the committed transfer log is three parallel columns
// (from-handle, to-handle, cents). A warm transfer therefore touches two
// column cells and appends three values — no map, no per-entry struct, and
// with pre-reserved capacity (Grow) no allocation at all.
type Ledger struct {
	index    map[AccountID]Account // open/lookup only — never on the transfer path
	ids      []AccountID           // handle → id, for rendering entries and audits
	balances []int64
	total    int64
	// Committed transfer log as parallel columns; Entries materializes the
	// struct view on demand.
	entryFrom  []Account
	entryTo    []Account
	entryCents []int64
}

// Entry is one committed transfer.
type Entry struct {
	From, To AccountID
	Cents    int64
}

// Errors returned by ledger operations.
var (
	ErrUnknownAccount    = errors.New("banking: unknown account")
	ErrInsufficientFunds = errors.New("banking: insufficient funds")
	ErrBadAmount         = errors.New("banking: non-positive amount")
	ErrSelfTransfer      = errors.New("banking: transfer to self")
)

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{index: make(map[AccountID]Account)}
}

// Open creates an account with an opening balance (must be non-negative).
func (l *Ledger) Open(id AccountID, openingCents int64) error {
	_, err := l.OpenAccount(id, openingCents)
	return err
}

// OpenAccount is Open returning the new account's handle, so hot-path
// callers never need the string→handle map again.
func (l *Ledger) OpenAccount(id AccountID, openingCents int64) (Account, error) {
	if openingCents < 0 {
		return 0, fmt.Errorf("%w: opening balance %d", ErrBadAmount, openingCents)
	}
	if _, ok := l.index[id]; ok {
		return 0, fmt.Errorf("banking: account %q already open", id)
	}
	a := Account(len(l.balances))
	l.index[id] = a
	l.ids = append(l.ids, id)
	l.balances = append(l.balances, openingCents)
	l.total += openingCents
	return a, nil
}

// Handle resolves an account id to its column handle.
func (l *Ledger) Handle(id AccountID) (Account, error) {
	a, ok := l.index[id]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownAccount, id)
	}
	return a, nil
}

// ID returns the account id behind a handle.
func (l *Ledger) ID(a Account) AccountID { return l.ids[a] }

// Balance returns an account balance by id.
func (l *Ledger) Balance(id AccountID) (int64, error) {
	a, err := l.Handle(id)
	if err != nil {
		return 0, err
	}
	return l.balances[a], nil
}

// BalanceOf returns an account balance by handle — the hot-path read.
func (l *Ledger) BalanceOf(a Account) int64 { return l.balances[a] }

// Grow pre-reserves capacity for n additional log entries, so a settlement
// burst of known size appends without reallocating.
func (l *Ledger) Grow(n int) {
	l.entryFrom = append(make([]Account, 0, len(l.entryFrom)+n), l.entryFrom...)
	l.entryTo = append(make([]Account, 0, len(l.entryTo)+n), l.entryTo...)
	l.entryCents = append(make([]int64, 0, len(l.entryCents)+n), l.entryCents...)
}

// Transfer moves cents from one account to another atomically, resolving
// the ids through the account map. Overdrafts and self-transfers are
// rejected (no money creation, no vacuous log entries).
func (l *Ledger) Transfer(from, to AccountID, cents int64) error {
	if cents <= 0 {
		return fmt.Errorf("%w: %d", ErrBadAmount, cents)
	}
	fa, ok := l.index[from]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAccount, from)
	}
	ta, ok := l.index[to]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAccount, to)
	}
	return l.TransferBetween(fa, ta, cents)
}

// TransferBetween is Transfer on resolved handles — the map-free hot path.
func (l *Ledger) TransferBetween(from, to Account, cents int64) error {
	if cents <= 0 {
		return fmt.Errorf("%w: %d", ErrBadAmount, cents)
	}
	if from < 0 || int(from) >= len(l.balances) {
		return fmt.Errorf("%w: handle %d", ErrUnknownAccount, from)
	}
	if to < 0 || int(to) >= len(l.balances) {
		return fmt.Errorf("%w: handle %d", ErrUnknownAccount, to)
	}
	if from == to {
		return fmt.Errorf("%w: %q", ErrSelfTransfer, l.ids[from])
	}
	if l.balances[from] < cents {
		return fmt.Errorf("%w: %q has %d, needs %d", ErrInsufficientFunds, l.ids[from], l.balances[from], cents)
	}
	l.balances[from] -= cents
	l.balances[to] += cents
	l.entryFrom = append(l.entryFrom, from)
	l.entryTo = append(l.entryTo, to)
	l.entryCents = append(l.entryCents, cents)
	return nil
}

// Total returns the sum of all balances; it must equal the sum of opening
// balances forever (conservation).
func (l *Ledger) Total() int64 { return l.total }

// CheckConservation recomputes the balance sum and verifies it against the
// tracked total — the audit the paper's regulated-industry framing requires.
// The scan walks the balance column only; no map is touched.
func (l *Ledger) CheckConservation() error {
	var sum int64
	negative := false
	for _, b := range l.balances {
		sum += b
		negative = negative || b < 0
	}
	if sum != l.total {
		return fmt.Errorf("banking: conservation violated: balances sum to %d, want %d", sum, l.total)
	}
	if negative {
		return errors.New("banking: negative balance")
	}
	return nil
}

// Entries materializes the committed transfer log from its columns.
func (l *Ledger) Entries() []Entry {
	out := make([]Entry, len(l.entryCents))
	for i := range out {
		out[i] = Entry{From: l.ids[l.entryFrom[i]], To: l.ids[l.entryTo[i]], Cents: l.entryCents[i]}
	}
	return out
}
