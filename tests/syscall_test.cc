// Tests for the virtual syscall layer: classification and records.
#include <gtest/gtest.h>

#include "src/sanitizer/sanitizer.h"
#include "src/syscall/syscall.h"

namespace bunshin {
namespace {

using sc::Sysno;

TEST(SyscallTest, WriteRelatedClassification) {
  EXPECT_TRUE(sc::IsIoWriteRelated(Sysno::kWrite));
  EXPECT_TRUE(sc::IsIoWriteRelated(Sysno::kSend));
  EXPECT_TRUE(sc::IsIoWriteRelated(Sysno::kExecve));
  EXPECT_FALSE(sc::IsIoWriteRelated(Sysno::kRead));
  EXPECT_FALSE(sc::IsIoWriteRelated(Sysno::kMmap));
}

TEST(SyscallTest, MemoryManagementClassification) {
  for (Sysno no : {Sysno::kMmap, Sysno::kMunmap, Sysno::kMprotect, Sysno::kMadvise, Sysno::kBrk}) {
    EXPECT_TRUE(sc::IsMemoryManagement(no));
    EXPECT_FALSE(sc::IsSyncRelevant(no)) << sc::SysnoName(no);
  }
  EXPECT_FALSE(sc::IsMemoryManagement(Sysno::kWrite));
}

TEST(SyscallTest, SynccallNeverCompared) {
  EXPECT_FALSE(sc::IsSyncRelevant(Sysno::kSynccall));
}

TEST(SyscallTest, EverySysnoHasAName) {
  for (size_t i = 0; i < static_cast<size_t>(Sysno::kCount); ++i) {
    EXPECT_STRNE(sc::SysnoName(static_cast<Sysno>(i)), "?");
  }
}

TEST(SyscallTest, RecordComparison) {
  sc::SyscallRecord a;
  a.no = Sysno::kWrite;
  a.args = {1, 64, 0, 0, 0, 0};
  a.payload_digest = sc::DigestString("hello");
  sc::SyscallRecord b = a;
  EXPECT_TRUE(a.SameRequest(b));
  b.payload_digest = sc::DigestString("hellp");
  EXPECT_FALSE(a.SameRequest(b));  // one byte of payload differs
  b = a;
  b.args[1] = 65;
  EXPECT_FALSE(a.SameRequest(b));
  b = a;
  b.result = 99;  // results are not part of the request comparison
  EXPECT_TRUE(a.SameRequest(b));
}

TEST(SyscallTest, DigestIsStableAndSensitive) {
  EXPECT_EQ(sc::DigestString("abc"), sc::DigestString("abc"));
  EXPECT_NE(sc::DigestString("abc"), sc::DigestString("abd"));
  EXPECT_NE(sc::DigestString(""), sc::DigestString("a"));
}

TEST(SyscallTest, ParseIntroducedSyscall) {
  const auto mmap_rec = sc::ParseIntroducedSyscall("mmap:shadow");
  EXPECT_EQ(mmap_rec.no, Sysno::kMmap);
  EXPECT_EQ(mmap_rec.payload_digest, sc::DigestString("shadow"));

  const auto proc_rec = sc::ParseIntroducedSyscall("read:/proc/self/maps");
  EXPECT_EQ(proc_rec.no, Sysno::kRead);

  const auto bare = sc::ParseIntroducedSyscall("write");
  EXPECT_EQ(bare.no, Sysno::kWrite);
  EXPECT_EQ(bare.payload_digest, 0u);
}

TEST(SyscallTest, CatalogIntroducedSyscallsAllParse) {
  for (const auto& info : san::AllSanitizers()) {
    for (const auto* list :
         {&info.introduced.pre_launch, &info.introduced.in_execution, &info.introduced.post_exit}) {
      for (const auto& entry : *list) {
        const auto rec = sc::ParseIntroducedSyscall(entry);
        EXPECT_LT(static_cast<size_t>(rec.no), static_cast<size_t>(Sysno::kCount));
      }
    }
  }
}

}  // namespace
}  // namespace bunshin
