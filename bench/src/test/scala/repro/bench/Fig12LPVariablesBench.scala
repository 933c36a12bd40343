package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.tpcds.TpcdsLite

/** Figure 9: distribution of CC cardinalities in WLc (log-scale buckets).
  * Paper: wide range, from a few tuples to ~a billion; ours spans the same
  * shape scaled to the SF-0.01 client DB.
  */
class Fig09CardinalityDistBench extends AnyFunSuite {
  test("Figure 9: CC cardinality distribution (WLc)") {
    val ccs = BenchEnv.wlcCcs
    val buckets = BenchEnv.cardinalityHistogram("Figure 9 — CC cardinality distribution, WLc", ccs)
    println(s"total CCs: ${ccs.size} from ${BenchEnv.wlc.size} queries " +
      s"(paper: 351 CCs from 131 queries)")
    assert(ccs.size > 100, "WLc should produce a rich CC set")
    assert(buckets >= 4, "cardinalities should span several orders of magnitude")
  }
}

/** Figure 12: number of LP variables per relation under WLc —
  * region-partitioning (Hydra) vs grid-partitioning (DataSynth).
  * Paper: catalog_sales 5.5 M → 1620; item 10^11 → ~3700.
  */
class Fig12LPVariablesBench extends AnyFunSuite {
  test("Figure 12: LP variables per relation (WLc)") {
    val rows = BenchEnv.variableCounts(TpcdsLite.schema, BenchEnv.wlcCcs)
    BenchEnv.table("Figure 12 — LP variables, WLc (Hydra regions vs DataSynth grid)",
      Seq("relation", "Hydra vars", "DataSynth vars", "ratio"),
      rows.map { case (n, h, g) =>
        val ratio = if (h == 0) "-" else (BigDecimal(g) / h).toBigInt.toString
        Seq(n, h.toString, g.toString, ratio)
      })
    // Shape: item (the paper's showcase) sees orders-of-magnitude reduction;
    // every constrained relation needs no more regions than grid cells, and
    // the overall tally is dominated by the grid side.
    val item = rows.find(_._1 == "item").get
    assert(BigInt(item._2) * 1000 <= item._3,
      s"item: expected >=1000x reduction, hydra=${item._2} grid=${item._3}")
    rows.foreach { case (n, h, g) => assert(BigInt(h) <= g, s"$n: regions exceed grid") }
    val totalH = rows.map(r => BigInt(r._2)).sum
    val totalG = rows.map(_._3).sum
    assert(totalH * 100 <= totalG, s"total: hydra=$totalH grid=$totalG")
  }
}
