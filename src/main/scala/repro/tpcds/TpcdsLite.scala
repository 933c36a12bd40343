package repro.tpcds

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._

/** TPC-DS-lite: a synthetic, all-numeric TPC-DS-like snowflake schema.
  *
  * Substitute for the paper's 100 GB TPC-DS instance (§7): same structural
  * ingredients — wide fact tables (store/catalog/web sales, inventory,
  * returns), a many-attribute `item` dimension (the paper's grid-partition
  * blow-up case), a calendar dimension shared by several facts (making the
  * dependency graph a DAG), and a returns→sales FK chain giving transitive
  * view closures. All values numeric, per the paper's Anonymizer.
  */
object TpcdsLite {

  val schema: SchemaDef = SchemaDef(Seq(
    Relation("date_dim", "d_datekey", Seq(
      Attr("d_year", 1998, 2004, categorical = true),
      Attr("d_moy", 1, 13, categorical = true),
      Attr("d_dom", 1, 29, categorical = true)), Nil),
    Relation("item", "i_itemkey", Seq(
      Attr("i_category", 1, 11, categorical = true),
      Attr("i_brand", 1, 101, categorical = true),
      Attr("i_price", 1, 101),
      Attr("i_size", 1, 51, categorical = true),
      Attr("i_color", 1, 93, categorical = true),
      Attr("i_manufact", 1, 1001, categorical = true),
      Attr("i_class", 1, 21, categorical = true),
      Attr("i_units", 1, 22, categorical = true)), Nil),
    Relation("customer", "c_custkey", Seq(
      Attr("c_birth_year", 1924, 1993, categorical = true),
      Attr("c_nation", 0, 25, categorical = true),
      Attr("c_acctbal", -1000, 10000)), Nil),
    Relation("store", "s_storekey", Seq(
      Attr("s_state", 0, 50, categorical = true), Attr("s_tax", 0, 0.12)), Nil),
    Relation("warehouse", "w_warehousekey", Seq(
      Attr("w_state", 0, 50, categorical = true), Attr("w_sqft", 50000, 1000000)), Nil),
    Relation("store_sales", "ss_id", Seq(
      Attr("ss_quantity", 1, 101, categorical = true), Attr("ss_salesprice", 0, 300),
      Attr("ss_discount", 0, 1), Attr("ss_profit", -500, 500)),
      Seq(ForeignKey("ss_itemkey", "item"), ForeignKey("ss_custkey", "customer"),
          ForeignKey("ss_storekey", "store"), ForeignKey("ss_datekey", "date_dim"))),
    Relation("catalog_sales", "cs_id", Seq(
      Attr("cs_quantity", 1, 101, categorical = true), Attr("cs_salesprice", 0, 300),
      Attr("cs_shipcost", 0, 100)),
      Seq(ForeignKey("cs_itemkey", "item"), ForeignKey("cs_custkey", "customer"),
          ForeignKey("cs_datekey", "date_dim"))),
    Relation("web_sales", "ws_id", Seq(
      Attr("ws_quantity", 1, 101, categorical = true), Attr("ws_salesprice", 0, 300)),
      Seq(ForeignKey("ws_itemkey", "item"), ForeignKey("ws_custkey", "customer"),
          ForeignKey("ws_datekey", "date_dim"))),
    Relation("store_returns", "sr_id", Seq(
      Attr("sr_returnqty", 1, 101, categorical = true), Attr("sr_fee", 0, 100)),
      Seq(ForeignKey("sr_ticket", "store_sales"))),
    Relation("inventory", "inv_id", Seq(
      Attr("inv_qoh", 0, 1000)),
      Seq(ForeignKey("inv_itemkey", "item"), ForeignKey("inv_warehousekey", "warehouse"),
          ForeignKey("inv_datekey", "date_dim"))),
  ))

  /** Per-relation row counts at scale factor `sf` (sf=1 ≈ TPC-DS 1 GB-ish;
    * dimensions have floors so tiny SFs stay meaningful).
    */
  def rowCounts(sf: Double): Map[String, Long] = {
    def n(base: Long, floor: Long): Long = math.max(floor, (base * sf).toLong)
    Map(
      "date_dim"      -> 2190L, // calendar does not scale
      "item"          -> n(18000, 100),
      "customer"      -> n(100000, 200),
      "store"         -> n(60, 12),
      "warehouse"     -> n(15, 5),
      "store_sales"   -> n(2880000, 1000),
      "catalog_sales" -> n(1440000, 500),
      "web_sales"     -> n(720000, 300),
      "store_returns" -> n(288000, 100),
      "inventory"     -> n(1000000, 400),
    )
  }

  /** The client database instance at scale factor `sf`. */
  def clientDb(spark: SparkSession, sf: Double, seed: Long = 42): Map[String, DataFrame] =
    ClientDb.generate(spark, schema, rowCounts(sf), seed)

  val facts: Seq[String] =
    Seq("store_sales", "catalog_sales", "web_sales", "inventory", "store_returns")
}

/** The two evaluation workloads of §7, scaled to CI budgets.
  *
  * WLc (paper: 131 queries / 351 CCs): multi-attribute DNF filters with many
  * distinct constants — drives grid-partitioning past any solver capacity
  * while region counts stay in the thousands.
  * WLs (paper: 311 CCs): conjunctive single/two-attribute filters over a
  * coarse constant grid — small enough that the grid LP solves, so the two
  * systems can be compared end to end.
  */
object TpcdsWorkload {

  def wlc(numQueries: Int = 40, seed: Long = 11): Seq[Query] =
    WorkloadGen.generate(TpcdsLite.schema, TpcdsLite.facts,
      WorkloadSpec(numQueries, maxDims = 2, filterProb = 0.8,
        maxDisjuncts = 2, constantGrid = 9, poolSize = 8,
        defaultAttrsPerConjunct = 1, wideAttrs = Map("item" -> 6),
        joinWideAttrs = Map("item" -> 3), seed = seed))

  def wls(numQueries: Int = 16, seed: Long = 7): Seq[Query] =
    WorkloadGen.generate(TpcdsLite.schema, TpcdsLite.facts,
      WorkloadSpec(numQueries, maxDims = 2, filterProb = 0.6,
        maxDisjuncts = 1, constantGrid = 10, poolSize = 8,
        defaultAttrsPerConjunct = 2, wideAttrs = Map.empty, seed = seed))
}
