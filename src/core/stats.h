#ifndef TOPKRGS_CORE_STATS_H_
#define TOPKRGS_CORE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace topkrgs {

/// Shannon entropy (bits) of a class-count histogram. Zero counts contribute
/// nothing; an all-zero histogram has entropy 0.
double Entropy(const std::vector<uint32_t>& counts);

/// Class entropy of a partition: weighted average of the entropies of
/// `partitions`, each a class-count histogram.
double PartitionEntropy(const std::vector<std::vector<uint32_t>>& partitions);

/// The best binary split of a value-sorted sequence (BestBoundarySplit).
struct BoundarySplit {
  size_t last_left = 0;  // the cut follows this position
  double entropy = 0.0;  // PartitionEntropy(sides) of the cut
  /// The class histograms {left, right} of the two sides, kept as one
  /// partition list so the scan hands it to PartitionEntropy uncopied.
  std::vector<std::vector<uint32_t>> sides;
};

/// The boundary scan shared by the entropy discretizer and the gene
/// scores. Over `n` (value, label) pairs sorted by value, with class
/// histogram `total`, finds the cut between two different neighbouring
/// values with the lowest PartitionEntropy, the first on ties. Returns
/// false when all values are equal. Reusing one `split` across calls
/// makes the scan allocation-free.
bool BestBoundarySplit(const double* values, const uint8_t* labels, size_t n,
                       const std::vector<uint32_t>& total,
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
/// "entropy score" the paper uses to rank genes in FindLB.
double BestSplitInfoGain(const std::vector<double>& values,
                         const std::vector<uint8_t>& labels,
                         uint32_t num_classes);

/// Chi-square score of a continuous feature computed on its best-info-gain
/// binary split (used for the Figure 8 gene ranking).
double BestSplitChiSquare(const std::vector<double>& values,
                          const std::vector<uint8_t>& labels,
                          uint32_t num_classes);

}  // namespace topkrgs

#endif  // TOPKRGS_CORE_STATS_H_
