// Package lib holds one declaration of each kind the dead-code gate
// must tell apart.
package lib

// Used is called by main.
func Used() int { return helper() }

func helper() int { return 1 }

// Unused is called by nothing.
func Unused() int { return 2 }

// Allowed is called by nothing but is on the allow-list.
func Allowed() {}

func dead() int { return 3 }

// Getter is a generic interface.
type Getter[T any] interface {
	Get() T
}

// Box implements Getter[int]; its Get is only called through the
// interface.
type Box struct{ N int }

// Get implements Getter.
func (b Box) Get() int { return b.N }

// Get returns what g holds.
func Get[T any](g Getter[T]) T { return g.Get() }
