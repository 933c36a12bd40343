package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.tpcds.{TpcdsLite, TpcdsWorkload}
import repro.job.{JobLite, JobWorkload}

class WorkloadGenSpec extends AnyFunSuite {
  private val schema = TpcdsLite.schema
  private def overlaps(a: Interval, b: Interval): Boolean = !a.intersect(b).isEmpty

  private def spec(seed: Long = 1) = WorkloadSpec(
    numQueries = 10, maxDims = 2, filterProb = 0.8, maxDisjuncts = 2,
    constantGrid = 6, poolSize = 4, defaultAttrsPerConjunct = 1,
    wideAttrs = Map("item" -> 5), soloQueries = 3, seed = seed)

  test("deterministic in the seed") {
    val a = WorkloadGen.generate(schema, TpcdsLite.facts, spec())
    val b = WorkloadGen.generate(schema, TpcdsLite.facts, spec())
    assert(a == b)
    val c = WorkloadGen.generate(schema, TpcdsLite.facts, spec(seed = 2))
    assert(a != c)
  }

  test("produces numQueries join queries plus solo queries per wide relation") {
    val qs = WorkloadGen.generate(schema, TpcdsLite.facts, spec())
    val solos = qs.filter(_.joined.isEmpty)
    assert(qs.size == 10 + solos.size)
    assert(solos.forall(_.root == "item"))
    assert(solos.size <= 3 && solos.nonEmpty)
  }

  test("solo queries on wide relations use multi-attribute conjuncts") {
    val qs = WorkloadGen.generate(schema, TpcdsLite.facts, spec())
    val wide = qs.filter(q => q.joined.isEmpty && q.root == "item")
    assert(wide.exists(_.filters("item").conjuncts.exists(_.ranges.size >= 2)))
  }

  test("all queries validate against the schema") {
    WorkloadGen.generate(schema, TpcdsLite.facts, spec()).foreach(Aqp.validate(schema, _))
  }

  test("filters reuse a bounded template pool") {
    val qs = WorkloadGen.generate(schema, TpcdsLite.facts, spec().copy(numQueries = 40))
    val dimFilters = qs.flatMap(_.filters).filter(f => !TpcdsLite.facts.contains(f._1))
    val distinctPerRel = dimFilters.groupBy(_._1).map { case (r, fs) => r -> fs.map(_._2).distinct.size }
    distinctPerRel.foreach { case (r, n) =>
      assert(n <= 4 + 3, s"$r uses $n distinct filters — pool not respected")
    }
  }

  test("categorical attributes get aligned equal-or-disjoint buckets") {
    val qs = WorkloadGen.generate(schema, TpcdsLite.facts, spec().copy(numQueries = 40))
    val ivs = for {
      q <- qs; (_, dnf) <- q.filters; c <- dnf.conjuncts; r <- c.ranges
      a = schema.attrByName(r.attr) if a.categorical
    } yield (r.attr, r.iv)
    assert(ivs.nonEmpty)
    ivs.groupBy(_._1).foreach { case (attr, xs) =>
      val distinct = xs.map(_._2).distinct
      for (i <- distinct.indices; j <- (i + 1) until distinct.size) {
        val (a, b) = (distinct(i), distinct(j))
        assert(!overlaps(a, b) || a == b, s"$attr: partial overlap $a vs $b")
      }
    }
  }

  test("fact filters are conjunctive (single disjunct)") {
    val qs = WorkloadGen.generate(schema, TpcdsLite.facts, spec().copy(numQueries = 30))
    qs.filter(_.joined.nonEmpty).foreach { q =>
      q.filters.get(q.root).foreach(f =>
        assert(f.conjuncts.size == 1, s"fact filter not conjunctive: $f"))
    }
  }

  test("join order always references an earlier relation") {
    WorkloadGen.generate(schema, TpcdsLite.facts, spec().copy(numQueries = 50, maxDims = 3))
      .foreach(Aqp.validate(schema, _))
  }

  test("predicate intervals stay within attribute domains") {
    for {
      q <- WorkloadGen.generate(schema, TpcdsLite.facts, spec().copy(numQueries = 30))
      (_, dnf) <- q.filters; c <- dnf.conjuncts; r <- c.ranges
    } {
      val a = schema.attrByName(r.attr)
      assert(r.iv.lo >= a.lo && r.iv.hi <= a.hi, s"${r.attr}: ${r.iv} outside domain")
      assert(!r.iv.isEmpty, s"${r.attr}: empty interval generated")
    }
  }

  test("standard workloads have expected sizes") {
    assert(TpcdsWorkload.wls().size == 16)
    assert(TpcdsWorkload.wlc().size == 48) // 40 join + 8 solo item queries
    assert(JobWorkload.queries().size == 30)
  }

  test("JOB workload validates against the JOB schema") {
    JobWorkload.queries().foreach(Aqp.validate(JobLite.schema, _))
  }
}
