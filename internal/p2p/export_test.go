package p2p

import "reflect"

// PayloadType returns the type registered under a payload name, or nil,
// so the external codec tests can build every registered payload by name.
func PayloadType(name string) reflect.Type {
	payloadRegistry.RLock()
	defer payloadRegistry.RUnlock()
	return payloadRegistry.byName[name]
}
