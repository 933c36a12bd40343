package repro.core

import scala.util.Random

/** Seeded generator of PK-FK join + non-key-filter workloads (§7).
  *
  * The paper builds its workloads by customizing benchmark queries down to
  * the supported class (non-key filter predicates, PK-FK joins, nested
  * queries split out). We generate the same class directly: each query is a
  * left-deep join of a fact with a random subset of its (transitively)
  * referenced relations, with per-relation DNF range filters.
  *
  * Like real benchmark workloads (and unlike i.i.d.-random predicates),
  * filters are drawn from a bounded per-relation *template pool*: TPC-DS
  * derived queries reuse the same predicates and constants across queries.
  * This is what makes region-partitioning effective — and it is also the
  * regime the paper evaluates. Two knobs recreate the paper's complexity
  * split: `constantGrid` (distinct constants per attribute) and `wideAttrs`
  * (relations whose templates constrain many attributes in one conjunct,
  * like TPC-DS's item filters) drive the *grid* cell product through the
  * roof while region counts stay modest.
  */
final case class WorkloadSpec(
    numQueries: Int,
    maxDims: Int,               // max relations joined below the fact
    filterProb: Double,         // probability a joined dimension is filtered
    maxDisjuncts: Int,          // 1 = conjunctive only; >1 exercises DNF support
    constantGrid: Int,          // distinct constants per attribute
    poolSize: Int,              // filter templates per relation
    defaultAttrsPerConjunct: Int,
    wideAttrs: Map[String, Int], // relation → attrs/conjunct in SOLO queries on it
    joinWideAttrs: Map[String, Int] = Map.empty, // width override when joined as a dim
    seed: Long,
)

object WorkloadGen {

  /** Single-relation queries per `wideAttrs` relation. */
  val SoloQueries = 8

  def generate(schema: SchemaDef, facts: Seq[String], spec: WorkloadSpec): Seq[Query] = {
    val rnd = new Random(spec.seed)

    def gridPoint(a: Attr): Double = {
      val i = rnd.nextInt(spec.constantGrid + 1)
      a.lo + (a.hi - a.lo) * i / (spec.constantGrid + 1)
    }

    /** Categorical attrs get aligned bucket predicates (equal-or-disjoint,
      * like benchmark equality/IN filters); continuous attrs get ranges
      * over the constant grid.
      */
    def rangeFor(a: Attr): AttrRange =
      if (a.categorical) {
        val span = a.hi - a.lo
        val w = math.max(1.0, math.floor(span / 6))
        val buckets = math.max(1, (span / w).toInt)
        val v = a.lo + w * rnd.nextInt(buckets)
        AttrRange(a.name, Interval(v, math.min(a.hi, v + w)))
      } else {
        val (p, q) = (gridPoint(a), gridPoint(a))
        val (lo, hi) = if (p <= q) (p, q) else (q, p)
        // Guarantee non-empty: widen degenerate picks to one grid step.
        val step = (a.hi - a.lo) / (spec.constantGrid + 1)
        AttrRange(a.name, if (lo < hi) Interval(lo, hi) else Interval(lo, math.min(a.hi, lo + step)))
      }

    def template(rel: Relation, width: Int): Dnf = {
      // Fact filters stay conjunctive (range brackets, as in the benchmarks);
      // DNF shows up on dimension filters (IN-lists / OR of buckets).
      val nDisj = if (facts.contains(rel.name)) 1 else 1 + rnd.nextInt(spec.maxDisjuncts)
      val conjs = (0 until nDisj).flatMap { _ =>
        val k = math.min(1 + rnd.nextInt(width), rel.attrs.size)
        val attrs = rnd.shuffle(rel.attrs.toList).take(k)
        Conjunct.of(attrs.map(rangeFor))
      }
      Dnf(conjs.distinct)
    }

    // Per-relation template pools, built once — queries reuse them. Join
    // queries use narrow templates; relations in `wideAttrs` additionally
    // get a wide pool used only in single-relation queries (as TPC-DS's
    // many-attribute item filters appear in item-only query blocks).
    val pools: Map[String, Vector[Dnf]] = schema.relations.map { r =>
      val width = spec.joinWideAttrs.getOrElse(r.name, spec.defaultAttrsPerConjunct)
      r.name -> Vector.fill(spec.poolSize)(
        template(r, width)).filter(_.conjuncts.nonEmpty)
    }.toMap
    val soloQueries: Seq[Query] = spec.wideAttrs.toSeq.sortBy(_._1).flatMap {
      case (rel, width) =>
        Vector.fill(SoloQueries)(template(schema.byName(rel), width))
          .filter(_.conjuncts.nonEmpty)
          .map(f => Query(rel, Nil, Map(rel -> f)))
    }

    soloQueries ++ (0 until spec.numQueries).map { qi =>
      val fact = facts(qi % facts.size)
      // Grow a join set by walking FK edges from already-joined relations.
      val joined = scala.collection.mutable.ArrayBuffer[String]()
      val nDims = 1 + rnd.nextInt(spec.maxDims)
      var frontier = schema.byName(fact).fks.map(_.target).distinct.toVector
      while (joined.size < nDims && frontier.nonEmpty) {
        val pick = frontier(rnd.nextInt(frontier.size))
        joined += pick
        frontier = (frontier.filterNot(_ == pick) ++
          schema.byName(pick).fks.map(_.target).filterNot(t => joined.contains(t))).distinct
      }
      val candidates = fact +: joined.toSeq
      val filters = candidates.flatMap { rel =>
        val pool = pools(rel)
        val want = (rel == fact || rnd.nextDouble() < spec.filterProb) && pool.nonEmpty
        if (want) Some(rel -> pool(rnd.nextInt(pool.size))) else None
      }.toMap
      Query(fact, joined.toSeq, filters)
    }
  }
}
