// Property tests for the WAL frame codec (recovery/wal_codec.h): every
// record type round-trips bit-exactly through encode/decode, and any
// corruption — a flipped bit anywhere in a frame, or a truncated tail — is
// caught by the length/CRC check and truncates the scan at the last clean
// frame instead of yielding a garbled record.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "btree/btree_node.h"
#include "recovery/wal_codec.h"
#include "util/crc32.h"

namespace bulkdel {
namespace {

bool RecordsEqual(const LogRecord& a, const LogRecord& b) {
  return a.type == b.type && a.bd_id == b.bd_id && a.label == b.label &&
         a.aux == b.aux && a.pages == b.pages && a.count == b.count &&
         a.key == b.key && a.rid.Pack() == b.rid.Pack() &&
         a.values == b.values;
}

/// A record exercising every field, varied by `salt` so consecutive records
/// differ. Cycles through all record types.
LogRecord MakeRecord(uint64_t salt) {
  LogRecord r;
  r.type = static_cast<LogRecordType>(salt % kNumLogRecordTypes);
  r.bd_id = salt * 77 + 1;
  r.label = "label-" + std::to_string(salt);
  r.aux = std::string(salt % 13, static_cast<char>('a' + salt % 26));
  for (uint64_t p = 0; p < salt % 5; ++p) {
    r.pages.push_back(static_cast<PageId>(salt + p));
  }
  r.count = salt << 7;
  r.key = static_cast<int64_t>(salt) * -31;
  r.rid = Rid{static_cast<PageId>(salt % 1000), static_cast<uint16_t>(salt)};
  for (uint64_t v = 0; v < salt % 4; ++v) {
    r.values.push_back(static_cast<int64_t>(salt * v) - 5);
  }
  return r;
}

TEST(WalCodecTest, EveryRecordTypeRoundTrips) {
  for (uint8_t t = 0; t < kNumLogRecordTypes; ++t) {
    LogRecord r = MakeRecord(17 + t * 13);
    r.type = static_cast<LogRecordType>(t);
    std::string image;
    EncodeLogRecord(r, &image);
    EXPECT_EQ(image.size(), EncodedLogRecordSize(r));

    WalScanResult scan = DecodeLogRecords(image);
    EXPECT_FALSE(scan.torn_tail);
    EXPECT_EQ(scan.clean_bytes, image.size());
    ASSERT_EQ(scan.records.size(), 1u) << "type " << static_cast<int>(t);
    EXPECT_TRUE(RecordsEqual(r, scan.records[0]))
        << "type " << static_cast<int>(t);
  }
}

TEST(WalCodecTest, EdgeValuesRoundTrip) {
  LogRecord r;
  r.type = LogRecordType::kLeafEntriesDeleted;
  r.bd_id = ~0ull;
  r.label = "";  // empty strings
  r.aux = std::string("\0\xff\x7f binary \n", 10);
  r.count = ~0ull;
  r.key = INT64_MIN;
  r.values.assign(10000, INT64_MAX);  // huge values vector
  std::string image;
  EncodeLogRecord(r, &image);
  WalScanResult scan = DecodeLogRecords(image);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_TRUE(RecordsEqual(r, scan.records[0]));

  LogRecord empty;  // all defaults
  image.clear();
  EncodeLogRecord(empty, &image);
  scan = DecodeLogRecords(image);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_TRUE(RecordsEqual(empty, scan.records[0]));
}

/// The record a key-index pass writes for one full leaf: every entry's
/// (key, packed RID) pair, and the leaf's page when it was detached whole.
LogRecord FullLeafRecord(bool detached) {
  const uint16_t pairs = BTreeNode::LeafPageCapacity();
  LogRecord r;
  r.type = LogRecordType::kLeafEntriesDeleted;
  r.bd_id = 42;
  r.label = "R.A/index:R.A";
  if (detached) r.pages = {1234};
  r.count = pairs;
  for (uint16_t i = 0; i < pairs; ++i) {
    r.values.push_back(int64_t{i} * 7 - 300);
    Rid rid(static_cast<PageId>(500 + i / 16), static_cast<uint16_t>(i % 16));
    r.values.push_back(static_cast<int64_t>(rid.Pack()));
  }
  return r;
}

TEST(WalCodecTest, FullLeafRecordRoundTrips) {
  ASSERT_GE(BTreeNode::LeafPageCapacity(), 250);
  for (bool detached : {false, true}) {
    LogRecord r = FullLeafRecord(detached);
    std::string image;
    EncodeLogRecord(r, &image);
    EXPECT_EQ(image.size(), EncodedLogRecordSize(r));
    WalScanResult scan = DecodeLogRecords(image);
    EXPECT_FALSE(scan.torn_tail);
    ASSERT_EQ(scan.records.size(), 1u) << "detached " << detached;
    EXPECT_TRUE(RecordsEqual(r, scan.records[0])) << "detached " << detached;
  }
}

TEST(WalCodecTest, TornFullLeafRecordStopsAtItsStart) {
  // A crash that cuts the log anywhere inside a full leaf's record keeps
  // the records before it and nothing of it.
  std::string image;
  LogRecord before = MakeRecord(5);
  EncodeLogRecord(before, &image);
  const size_t start = image.size();
  EncodeLogRecord(FullLeafRecord(/*detached=*/true), &image);
  for (size_t cut = start + 1; cut < image.size(); ++cut) {
    WalScanResult scan = DecodeLogRecords(image.substr(0, cut));
    ASSERT_EQ(scan.records.size(), 1u) << "cut at " << cut;
    EXPECT_TRUE(RecordsEqual(before, scan.records[0])) << "cut at " << cut;
    EXPECT_EQ(scan.clean_bytes, start) << "cut at " << cut;
    EXPECT_TRUE(scan.torn_tail) << "cut at " << cut;
  }
}

TEST(WalCodecTest, MultiRecordImageDecodesInOrder) {
  std::string image;
  std::vector<LogRecord> originals;
  for (uint64_t i = 0; i < 64; ++i) {
    originals.push_back(MakeRecord(i));
    EncodeLogRecord(originals.back(), &image);
  }
  WalScanResult scan = DecodeLogRecords(image);
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), originals.size());
  for (size_t i = 0; i < originals.size(); ++i) {
    EXPECT_TRUE(RecordsEqual(originals[i], scan.records[i])) << "record " << i;
  }
}

TEST(WalCodecTest, EveryPossibleTruncationStopsCleanly) {
  // Any strict byte prefix of a frame must fail to decode: the length header
  // is cut short, claims bytes past the end, or the CRC does not verify.
  std::string image;
  std::vector<size_t> boundaries;  // cumulative clean sizes
  for (uint64_t i = 0; i < 8; ++i) {
    EncodeLogRecord(MakeRecord(i * 5 + 1), &image);
    boundaries.push_back(image.size());
  }
  for (size_t cut = 0; cut < image.size(); ++cut) {
    std::string prefix = image.substr(0, cut);
    WalScanResult scan = DecodeLogRecords(prefix);
    // The scan keeps exactly the frames that fit entirely within the cut.
    size_t want_records = 0;
    size_t want_clean = 0;
    for (size_t b = 0; b < boundaries.size(); ++b) {
      if (boundaries[b] <= cut) {
        want_records = b + 1;
        want_clean = boundaries[b];
      }
    }
    EXPECT_EQ(scan.records.size(), want_records) << "cut at " << cut;
    EXPECT_EQ(scan.clean_bytes, want_clean) << "cut at " << cut;
    EXPECT_EQ(scan.torn_tail, cut != want_clean) << "cut at " << cut;
  }
}

TEST(WalCodecTest, EveryBitFlipIsDetected) {
  // Flip one bit at a time across a two-frame image. Whatever byte it lands
  // in — length, CRC, or payload — the affected frame must fail to verify
  // and the scan must stop at the last clean frame before it.
  std::string image;
  LogRecord first = MakeRecord(3);
  LogRecord second = MakeRecord(9);
  EncodeLogRecord(first, &image);
  const size_t first_bytes = image.size();
  EncodeLogRecord(second, &image);

  for (size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = image;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      WalScanResult scan = DecodeLogRecords(corrupt);
      if (byte < first_bytes) {
        // First frame corrupted: nothing decodes...
        // ...unless the flip made frame 1's length header claim a larger
        // frame whose CRC coincidentally verifies — impossible for CRC32
        // over a changed length field, so the scan must stop at 0.
        EXPECT_EQ(scan.records.size(), 0u)
            << "byte " << byte << " bit " << bit;
        EXPECT_EQ(scan.clean_bytes, 0u) << "byte " << byte << " bit " << bit;
      } else {
        // Second frame corrupted: the first decodes, then the scan stops.
        ASSERT_EQ(scan.records.size(), 1u)
            << "byte " << byte << " bit " << bit;
        EXPECT_TRUE(RecordsEqual(first, scan.records[0]));
        EXPECT_EQ(scan.clean_bytes, first_bytes);
      }
      EXPECT_TRUE(scan.torn_tail) << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(WalCodecTest, RandomGarbageNeverDecodes) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(1 + rng() % 200, '\0');
    for (char& c : garbage) c = static_cast<char>(rng());
    WalScanResult scan = DecodeLogRecords(garbage);
    // A 1-in-2^32 CRC collision on random bytes is possible in principle;
    // with a fixed seed this is deterministic and does not happen.
    EXPECT_TRUE(scan.records.empty()) << "trial " << trial;
    EXPECT_TRUE(scan.torn_tail);
  }
}

TEST(WalCodecTest, TrailingGarbageInsideVerifiedFrameIsRejected) {
  // A frame whose payload decodes but leaves unconsumed bytes is corrupt
  // even though its CRC matches (it was encoded that way): the decoder must
  // not silently ignore payload bytes.
  LogRecord r = MakeRecord(4);
  std::string clean;
  EncodeLogRecord(r, &clean);
  // Rebuild the frame with two extra payload bytes and a matching CRC.
  std::string payload = clean.substr(kWalFrameHeaderBytes);
  payload += "xx";
  std::string forged;
  EncodeLogRecord(r, &forged);  // throwaway, for sizing only
  forged.clear();
  auto store_u32 = [&forged](uint32_t v) {
    forged.push_back(static_cast<char>(v));
    forged.push_back(static_cast<char>(v >> 8));
    forged.push_back(static_cast<char>(v >> 16));
    forged.push_back(static_cast<char>(v >> 24));
  };
  store_u32(static_cast<uint32_t>(payload.size()));
  store_u32(Crc32(payload.data(), payload.size()));
  forged += payload;
  WalScanResult scan = DecodeLogRecords(forged);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_TRUE(scan.torn_tail);
}

}  // namespace
}  // namespace bulkdel
