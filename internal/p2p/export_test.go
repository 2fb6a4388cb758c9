package p2p

import "reflect"

// PayloadType returns the type registered under a payload name, or nil,
// so the external codec tests can build every registered payload by name.
func PayloadType(name string) reflect.Type {
	if c := payloadRegistry.byName[name]; c != nil {
		return c.typ
	}
	return nil
}

// Fill populates a value and everything it reaches with distinct leaves
// (see fill), for the external codec tests.
var Fill = fill
