package directory

import "lorm/internal/metrics"

// Process-wide directory counters, resolved once at init. Registration is
// idempotent, so other packages (the transport digest) may resolve the same
// families.
var (
	mAdds = metrics.Default().Counter(
		"directory_adds_total",
		"Entries stored into node directories (Add and AddAll).")
	mMatches = metrics.Default().Counter(
		"directory_matches_total",
		"Range-match operations served by node directories (Match and MatchAppend).")
	mMatchEntries = metrics.Default().Counter(
		"directory_match_entries_total",
		"Entries returned by directory range matches.")
	mBlockSplits = metrics.Default().Counter(
		"directory_stage_merges_total",
		"Directory block splits: a full block split in half by an insert (the family keeps its earlier staging-merge name).")
	mTakeRanges = metrics.Default().Counter(
		"directory_take_ranges_total",
		"Key-interval extraction operations (TakeRange) during churn handover.")
	mHandedOver = metrics.Default().Counter(
		"directory_entries_handed_over_total",
		"Entries removed from a directory by handover paths (TakeRange, TakeIf, TakeAll).")
)
