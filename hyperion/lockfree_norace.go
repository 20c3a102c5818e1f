//go:build !race

package hyperion

// lockFreeBuild enables the optimistic half of the reader protocol
// (shardRead, shardFind). Race-enabled builds compile it out — see
// lockfree_race.go.
const lockFreeBuild = true
