#include "crypto/blinding.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "util/hex.hpp"

namespace eyw::crypto {
namespace {

struct Roster {
  DhGroup group;
  std::vector<DhKeyPair> keys;
  std::vector<Bignum> publics;
  std::vector<BlindingParticipant> participants;
};

Roster make_roster(std::size_t n, std::uint64_t seed) {
  static const DhGroup group = [] {
    util::Rng rng(5150);
    return DhGroup::generate(rng, 128);
  }();
  Roster r{.group = group, .keys = {}, .publics = {}, .participants = {}};
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    r.keys.push_back(dh_keygen(group, rng));
    r.publics.push_back(r.keys.back().public_key);
  }
  for (std::size_t i = 0; i < n; ++i)
    r.participants.emplace_back(group, i, r.keys[i],
                                std::span<const Bignum>(r.publics));
  return r;
}

TEST(Blinding, SharesOfZeroCancel) {
  const Roster r = make_roster(5, 1);
  const std::size_t cells = 16;
  std::vector<BlindCell> sum(cells, 0);
  for (const auto& p : r.participants) {
    const auto b = p.blinding_vector(cells, /*round=*/0);
    for (std::size_t m = 0; m < cells; ++m) sum[m] += b[m];
  }
  for (std::size_t m = 0; m < cells; ++m) EXPECT_EQ(sum[m], 0u) << "cell " << m;
}

TEST(Blinding, TwoParticipantsCancel) {
  const Roster r = make_roster(2, 2);
  const auto b0 = r.participants[0].blinding_vector(8, 3);
  const auto b1 = r.participants[1].blinding_vector(8, 3);
  for (std::size_t m = 0; m < 8; ++m)
    EXPECT_EQ(static_cast<BlindCell>(b0[m] + b1[m]), 0u);
}

TEST(Blinding, AggregationRecoversPlaintextSum) {
  const Roster r = make_roster(4, 3);
  const std::size_t cells = 10;
  std::vector<std::vector<BlindCell>> plain(4);
  std::vector<std::vector<BlindCell>> reports;
  for (std::size_t i = 0; i < 4; ++i) {
    plain[i].resize(cells);
    for (std::size_t m = 0; m < cells; ++m)
      plain[i][m] = static_cast<BlindCell>(i * 100 + m);
    reports.push_back(r.participants[i].blind(plain[i], /*round=*/7));
  }
  const auto agg = aggregate_blinded(reports);
  for (std::size_t m = 0; m < cells; ++m) {
    BlindCell expected = 0;
    for (std::size_t i = 0; i < 4; ++i) expected += plain[i][m];
    EXPECT_EQ(agg[m], expected);
  }
}

TEST(Blinding, SingleBlindedReportLooksRandom) {
  // A lone blinded report must not equal the plaintext (overwhelming prob.).
  const Roster r = make_roster(3, 4);
  const std::vector<BlindCell> plain(32, 5);
  const auto blinded = r.participants[0].blind(plain, 0);
  std::size_t equal = 0;
  for (std::size_t m = 0; m < plain.size(); ++m)
    if (blinded[m] == plain[m]) ++equal;
  EXPECT_LT(equal, 3u);
}

TEST(Blinding, RoundsAreIndependent) {
  const Roster r = make_roster(3, 5);
  const auto b0 = r.participants[0].blinding_vector(8, /*round=*/1);
  const auto b1 = r.participants[0].blinding_vector(8, /*round=*/2);
  EXPECT_NE(b0, b1);
}

TEST(Blinding, MissingClientLeavesResidue) {
  const Roster r = make_roster(5, 6);
  const std::size_t cells = 8;
  // Client 2 never reports.
  std::vector<std::vector<BlindCell>> reports;
  for (std::size_t i = 0; i < 5; ++i) {
    if (i == 2) continue;
    reports.push_back(
        r.participants[i].blind(std::vector<BlindCell>(cells, 1), 0));
  }
  auto agg = aggregate_blinded(reports);
  // Aggregate without adjustment is garbage: != 4 in at least one cell.
  bool any_wrong = false;
  for (std::size_t m = 0; m < cells; ++m) any_wrong |= agg[m] != 4u;
  EXPECT_TRUE(any_wrong);
}

TEST(Blinding, AdjustmentRoundCancelsMissingClients) {
  const Roster r = make_roster(6, 7);
  const std::size_t cells = 12;
  const std::vector<std::size_t> missing{1, 4};
  std::vector<std::vector<BlindCell>> reports;
  std::vector<std::size_t> reporters;
  for (std::size_t i = 0; i < 6; ++i) {
    if (i == 1 || i == 4) continue;
    reporters.push_back(i);
    reports.push_back(
        r.participants[i].blind(std::vector<BlindCell>(cells, 2), 9));
  }
  auto agg = aggregate_blinded(reports);
  for (std::size_t i : reporters) {
    const auto adj = r.participants[i].adjustment_for_missing(
        cells, 9, std::span<const std::size_t>(missing));
    apply_adjustment(agg, adj);
  }
  for (std::size_t m = 0; m < cells; ++m)
    EXPECT_EQ(agg[m], 8u) << "cell " << m;  // 4 reporters x 2
}

TEST(Blinding, AdjustmentRejectsSelf) {
  const Roster r = make_roster(3, 8);
  const std::vector<std::size_t> missing{0};
  EXPECT_THROW(r.participants[0].adjustment_for_missing(4, 0, missing),
               std::invalid_argument);
}

TEST(Blinding, AdjustmentRejectsUnknownIndex) {
  const Roster r = make_roster(3, 9);
  const std::vector<std::size_t> missing{7};
  EXPECT_THROW(r.participants[0].adjustment_for_missing(4, 0, missing),
               std::invalid_argument);
}

TEST(Blinding, ConstructorValidatesRoster) {
  const Roster r = make_roster(3, 10);
  EXPECT_THROW(BlindingParticipant(r.group, 5, r.keys[0],
                                   std::span<const Bignum>(r.publics)),
               std::invalid_argument);
  // Index/key mismatch.
  EXPECT_THROW(BlindingParticipant(r.group, 1, r.keys[0],
                                   std::span<const Bignum>(r.publics)),
               std::invalid_argument);
}

TEST(Blinding, AggregateRejectsMismatchedSizes) {
  std::vector<std::vector<BlindCell>> reports{{1, 2}, {1, 2, 3}};
  EXPECT_THROW(aggregate_blinded(reports), std::invalid_argument);
}

// The pads themselves, pinned. Every test above checks only that the
// shares cancel, which would still hold if the pad stream changed on both
// ends of every pair at once. These are SHA-256 digests of the
// little-endian cell bytes of blinding_vector(cells, 27) for a seeded
// five-member roster: participant 0 sits below every peer (each pad is
// subtracted), participant 4 above every peer (each pad is added), and
// participant 2 has peers on both sides. The cell counts cover a single
// cell, one past a SHA-256 block (8 cells), the 4x256 sketch, a count
// that is not a multiple of 128, and the paper's 17x2719 sketch.
std::string blinding_digest_hex(const BlindingParticipant& p,
                                std::size_t cells, std::uint64_t round) {
  const std::vector<BlindCell> v = p.blinding_vector(cells, round);
  std::vector<std::uint8_t> bytes(v.size() * sizeof(BlindCell));
  for (std::size_t m = 0; m < v.size(); ++m)
    for (std::size_t b = 0; b < sizeof(BlindCell); ++b)
      bytes[m * sizeof(BlindCell) + b] =
          static_cast<std::uint8_t>(v[m] >> (8 * b));
  return util::to_hex(sha256(bytes));
}

TEST(Blinding, PadStreamMatchesGoldenDigests) {
  const Roster r = make_roster(5, 2701);
  struct Golden {
    std::size_t participant;
    std::size_t cells;
    const char* digest;
  };
  const Golden golden[] = {
      {0, 1,
       "caef8ea1399c22a07be5dbd46a0ddb77a0f1cf1df7870115aeea1a4eac706f38"},
      {0, 9,
       "7a76fc18d4e66b4861b555e0038c1d27460f39ec641e015ec353e1d34583d714"},
      {0, 1024,
       "39ac62068e294224e3fd6980997f9c2aad845841e42f26d97ebe773a95684d78"},
      {0, 5000,
       "a3f5f47ac93028fb278daae5fce02d374a5e7b63e559287c526296fbfc989b84"},
      {0, 46223,
       "8ce0bad8e46330afa4353fe4813739d6e3e2627db23484352fc25495f1acc851"},
      {2, 1,
       "f8e4dbb154a34ec25abb00136ace8236ceca2e3aadcb76ff1c7bba25232bdbbd"},
      {2, 9,
       "96b75296640a8defb61e52758f520e5e90cabfde693cb9fdd5046b8ec44821f8"},
      {2, 1024,
       "9aaabfb135fafb95e9c9d1b539624ca0c637a72e1b2d84460fe654877756cc1a"},
      {2, 5000,
       "faa9d73d8f7ed1b7695f3c0b100ec0be095fd072e2588b0a7ca05d43131dff73"},
      {2, 46223,
       "00fb673726e88aa58eb0123b9dd76ee7c4dd30a191560f96cb4bb2dccfd658d6"},
      {4, 1,
       "c031da94b3db6cc937db61cc608b1d99662adfebe458129ebc5729719f0bc4f9"},
      {4, 9,
       "6b3311530c2a84d9415cf18f84a0bff45f3fea2fa52f15a1e84cd8baa04da765"},
      {4, 1024,
       "e873f9000f542329650ddd0f0f954564a464cdbd8c254924fd9e1f616ad458d7"},
      {4, 5000,
       "1955a0253bfcedc7c641addabee06d758e91be999d7a41dc934ac00a944b0154"},
      {4, 46223,
       "c0c5478afb33b97132767a51e9c78de038f69e07d974c37d97299a4c9106d5f6"},
  };
  for (const Golden& g : golden) {
    EXPECT_EQ(blinding_digest_hex(r.participants[g.participant], g.cells, 27),
              g.digest)
        << "participant " << g.participant << ", " << g.cells << " cells";
  }
}

TEST(Blinding, PairKeysMatchPerPeerDerivation) {
  // The constructor derives pair secrets through modexp_batch in roster
  // chunks of kMontLanes: 20 members make two full ladder groups and a
  // partial one, and each member's own slot sits in a different lane.
  util::Rng rng(0x70616972);
  const DhGroup group = DhGroup::generate(rng, 256);
  constexpr std::size_t kMembers = 20;
  std::vector<DhKeyPair> keys;
  std::vector<Bignum> publics;
  for (std::size_t i = 0; i < kMembers; ++i) {
    keys.push_back(dh_keygen(group, rng));
    publics.push_back(keys.back().public_key);
  }
  for (std::size_t i = 0; i < kMembers; ++i) {
    const BlindingParticipant p(group, i, keys[i],
                                std::span<const Bignum>(publics));
    for (std::size_t j = 0; j < kMembers; ++j) {
      if (j == i) continue;
      EXPECT_EQ(p.pair_key(j),
                dh_secret_to_key(
                    dh_shared_secret(group, keys[i].private_key, publics[j])))
          << "member " << i << ", peer " << j;
    }
  }
}

TEST(Blinding, RosterBytesScalesQuadratically) {
  const DhGroup g = DhGroup::rfc3526_2048();
  EXPECT_EQ(roster_bytes(g, 0), 0u);
  EXPECT_EQ(roster_bytes(g, 1), 256u);
  // n elements up + n(n-1) down.
  EXPECT_EQ(roster_bytes(g, 10), (10 + 90) * 256u);
}

}  // namespace
}  // namespace eyw::crypto
