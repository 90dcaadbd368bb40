#ifndef TOPKRGS_CORE_STATS_H_
#define TOPKRGS_CORE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/hot_path.h"

namespace topkrgs {

/// Shannon entropy (bits) of a class-count histogram. Zero counts contribute
/// nothing; an all-zero histogram has entropy 0. Each term p·log2(p), with
/// p = count/total, comes from one table built once at run time for totals
/// up to 256 and is computed directly above that, with the same float steps
/// either way, so every entropy in the library sees the same bits.
double Entropy(const std::vector<uint32_t>& counts);

/// Class entropy of a partition: weighted average of the entropies of
/// `partitions`, each a class-count histogram.
double PartitionEntropy(const std::vector<std::vector<uint32_t>>& partitions);

/// Reusable buffers of SortByValue: the sort keys and carried labels of
/// its two ping-pong passes, and one 256-bucket histogram per key byte.
struct SortScratch {
  std::vector<uint64_t> keys[2];
  std::vector<uint8_t> labels[2];
  uint32_t counts[8][256];
};

/// Sorts `n` (value, label) pairs by value into `sorted_values` and
/// `sorted_labels` (neither may alias the inputs): an LSD radix sort over
/// order-preserving 64-bit keys of the values, one pass per key byte that
/// is not constant across the column, the labels carried along. `n` must
/// fit in 32 bits. Reusing one `scratch` across calls makes the sort
/// allocation-free once it has seen the largest `n`.
///
/// Ties: the sort is stable, except that -0.0 sorts before +0.0, so the
/// order inside a run of equal values can differ from a comparison sort's.
/// That cannot change a cut or a gene score: the boundary scan evaluates
/// only boundaries between different values, its histograms at a boundary
/// do not depend on the order before it, -0.0 and +0.0 compare equal and
/// so never form a boundary, and a midpoint 0.5·(x ± 0) is 0.5·x either
/// way. NaN, which ingestion rejects, would land at the ends.
TKRGS_HOT void SortByValue(const double* values, const uint8_t* labels,
                           size_t n, SortScratch* scratch,
                           double* sorted_values, uint8_t* sorted_labels);

/// The best binary split of a value-sorted sequence (BestBoundarySplit).
struct BoundarySplit {
  size_t last_left = 0;  // the cut follows this position
  /// PartitionEntropy({left, right}) of the cut, bit for bit.
  double entropy = 0.0;
  std::vector<uint32_t> left;   // class histogram of positions [0, last_left]
  std::vector<uint32_t> right;  // class histogram of the positions after it
};

/// The boundary scan shared by the entropy discretizer and the gene
/// scores. Over `n` (value, label) pairs sorted by value, with class
/// histogram `total` of the `n` labels, finds the cut between two
/// different neighbouring values with the lowest class entropy, the first
/// on ties. Returns false when all values are equal. Each boundary's
/// entropy is (tl/n)·H(left) + (tr/n)·H(right) with the terms of Entropy,
/// in PartitionEntropy's order, so it equals PartitionEntropy bit for bit
/// without building a partition list. Reusing one `split` across calls
/// makes the scan allocation-free.
TKRGS_HOT bool BestBoundarySplit(const double* values, const uint8_t* labels,
                                 size_t n, const std::vector<uint32_t>& total,
                                 BoundarySplit* split);

/// Information gain of splitting `total` (class histogram) into `partitions`.
double InformationGain(const std::vector<uint32_t>& total,
                       const std::vector<std::vector<uint32_t>>& partitions);

/// Pearson chi-square statistic of an r x c contingency table
/// (rows = attribute values, columns = classes). Cells with zero expected
/// count contribute nothing.
double ChiSquare(const std::vector<std::vector<uint32_t>>& table);

/// Entropy-based discriminative score of a continuous feature for a binary
/// or multiclass labeling: the best information gain over all binary
/// threshold splits of `values`. Higher is more discriminative. This is the
/// "entropy score" the paper uses to rank genes in FindLB. Every label must
/// be below `num_classes` (a contract: checked, aborts otherwise).
double BestSplitInfoGain(const std::vector<double>& values,
                         const std::vector<uint8_t>& labels,
                         uint32_t num_classes);

/// Chi-square score of a continuous feature computed on its best-info-gain
/// binary split (used for the Figure 8 gene ranking). Same label contract.
double BestSplitChiSquare(const std::vector<double>& values,
                          const std::vector<uint8_t>& labels,
                          uint32_t num_classes);

}  // namespace topkrgs

#endif  // TOPKRGS_CORE_STATS_H_
