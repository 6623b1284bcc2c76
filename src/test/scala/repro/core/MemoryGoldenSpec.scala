package repro.core

import repro.{SparkSpec, TestFixtures => F}
import repro.core.index.MemoryModel

/** The model bytes of every index and of every fixture configuration, equal
  * to the recorded literals. A refactor of the memory model or of how an
  * index is held that should not change the accounting keeps this suite
  * green. */
class MemoryGoldenSpec extends SparkSpec {

  /** Configuration, its `memoryBytes`, and `MemoryModel.indexBytes` of each
    * of its indexes in build order. */
  private val golden: Seq[(String, () => SystemConfig, Long, Seq[(String, Long)])] = Seq(
    ("cfgD", () => F.cfgD, 62752L, Seq("D_fwd" -> 19096L, "D_bwd" -> 19056L)),
    ("cfgDs", () => F.cfgDs, 62752L, Seq("Ds_fwd" -> 19096L, "Ds_bwd" -> 19056L)),
    ("cfgDp", () => F.cfgDp, 68596L, Seq("Dp_fwd" -> 22056L, "Dp_bwd" -> 21940L)),
    ("finD", () => F.finD, 61380L, Seq("D_fwd" -> 18400L, "D_bwd" -> 18380L)),
    ("finDVBt", () => F.finDVBt, 62980L, Seq("D_fwd" -> 18400L, "D_bwd" -> 18380L, "VB_t" -> 1600L)),
    ("finDVBc", () => F.finDVBc, 64575L,
      Seq("D_fwd" -> 18400L, "D_bwd" -> 18380L, "VBc_fwd" -> 1600L, "VBc_bwd" -> 1595L)),
    ("finDVBcEBc", () => F.finDVBcEBc, 72144L,
      Seq("D_fwd" -> 18400L, "D_bwd" -> 18380L, "VBc_fwd" -> 1600L, "VBc_bwd" -> 1595L, "EB_c" -> 7569L)),
    ("finDEBplain", () => F.finDEBplain, 67052L, Seq("D_fwd" -> 18400L, "D_bwd" -> 18380L, "EB_mf" -> 5672L)))

  for ((name, cfg, total, perIndex) <- golden) {
    test(s"$name: index and configuration bytes are the recorded ones") {
      val c = cfg()
      val defaults = c.store.indexes.filter(_.defn.isDefault)
      assert(c.store.indexes.map(ix => ix.name -> MemoryModel.indexBytes(c.g, ix, defaults)) == perIndex)
      assert(c.memoryBytes == total)
    }
  }
}
