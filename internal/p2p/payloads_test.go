package p2p_test

// The codec fuzz seeds (codec_fuzz_test.go) include payloads that other
// packages register in their init; linking those packages into the test
// binary puts the payload types in the registry.
import _ "nearestpeer/internal/meridian"
