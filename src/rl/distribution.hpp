// Masked categorical action distribution (plain-Matrix side; the
// differentiable counterpart is nn/autograd.hpp's masked_log_softmax_rows).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace nptsn {

// Raised when a distribution is requested over a fully masked action row —
// the state offers no legal action. Deliberately a typed, recoverable error
// (not a bare precondition failure): the trainer's worker-quarantine path
// catches it, records an all_actions_masked anomaly, resets the offending
// worker's environment, and completes the epoch from the surviving workers.
// Derives from std::invalid_argument so callers without the health
// supervisor keep the historical failure type.
class MaskedDistributionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

struct CategoricalSample {
  int action = -1;
  double log_prob = 0.0;
};

// Probabilities of the masked softmax over a 1 x A logit row; masked entries
// get exactly 0. Throws MaskedDistributionError when every entry is masked.
std::vector<double> masked_probabilities(const Matrix& logits,
                                         const std::vector<std::uint8_t>& mask);

// Samples an action from the masked softmax.
CategoricalSample sample_masked(const Matrix& logits, const std::vector<std::uint8_t>& mask,
                                Rng& rng);

// Deterministic mode (ties to the lowest index). Throws
// MaskedDistributionError when every entry is masked.
int argmax_masked(const Matrix& logits, const std::vector<std::uint8_t>& mask);

// Entropy of the masked distribution in nats.
double entropy_masked(const Matrix& logits, const std::vector<std::uint8_t>& mask);

// Entropy of an already-computed masked-probability vector (avoids the
// second softmax when the caller holds masked_probabilities output — the
// rollout hot loop's entropy-collapse sentinel).
double entropy_of(const std::vector<double>& probs);

}  // namespace nptsn
